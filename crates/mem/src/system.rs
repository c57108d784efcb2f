//! The assembled cluster memory system: per-core L1s/TLBs/prefetchers, a
//! shared inclusive MOSEI L2 with snoop filter, and one DRAM channel.
//!
//! ## Observability
//!
//! Two observability layers sit on top of the timing model:
//!
//! * the **miss classifier** ([`crate::missclass`]) and the per-stream
//!   **prefetch scorecard** are *always on* — they are modeled state,
//!   captured by snapshots and reproduced by [`MemSystem::apply_op`]
//!   replay, so their counters are identical whether or not tracing is
//!   attached;
//! * the optional **[`MemTracer`]** ([`MemSystem::start_tracing`])
//!   records one structured event per modeled action. The off path is a
//!   single `Option` test and tracing never changes a returned latency
//!   or a counter (`tracing_does_not_change_timing` below).
//!
//! Direct mutation through [`MemSystem::tlb_mut`] bypasses both layers
//! (tests and the SoC layer poke TLB state without an access cycle); the
//! reconciliation guarantee ([`MemTracer::reconcile`]) covers the public
//! access paths.

use crate::cache::{Cache, LineState, ProbeResult};
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::missclass::MissClassifier;
use crate::prefetch::Prefetcher;
use crate::stats::{MemStats, StreamScore};
use crate::tlb::{Mapping, PageSize, Tlb, TlbResult};
use crate::trace::{Level, MemEvent, MemEventKind, MemTracer};
use std::collections::HashMap;

/// Synthetic physical region where page-table entries live, so that walk
/// accesses go through the cache hierarchy and exhibit locality (one
/// 64-byte line covers 8 adjacent PTEs).
const PTE_REGION: u64 = 0x40_0000_0000;

/// One access through a [`MemSystem`] entry point, recorded for epoch
/// replay by the parallel cluster engine (see `xt-soc`).
///
/// A recording system logs every call to [`MemSystem::icache_fetch`],
/// [`MemSystem::dload`], [`MemSystem::dstore`] and
/// [`MemSystem::dcache_flush_all`]; replaying the log with
/// [`MemSystem::apply_op`] against another instance reproduces the same
/// state transitions (timing side effects included) in a chosen order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemOp {
    /// An [`MemSystem::icache_fetch`] call.
    IFetch {
        /// Cycle of the original access.
        cycle: u64,
        /// Physical fetch address.
        pa: u64,
    },
    /// A [`MemSystem::dload`] call.
    Load {
        /// Cycle of the original access.
        cycle: u64,
        /// Virtual address.
        va: u64,
        /// Physical address.
        pa: u64,
    },
    /// A [`MemSystem::dstore`] call.
    Store {
        /// Cycle of the original access.
        cycle: u64,
        /// Virtual address.
        va: u64,
        /// Physical address.
        pa: u64,
    },
    /// A [`MemSystem::dcache_flush_all`] call.
    FlushAll,
}

/// The cluster memory hierarchy (paper Fig. 2: up to 4 cores sharing an
/// inclusive L2).
///
/// All methods take the current `cycle` and return the cycle at which the
/// access completes; internal state (cache contents, stream tables, TLB
/// entries, channel occupancy) advances as a side effect.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    tlbs: Vec<Tlb>,
    pfs: Vec<Prefetcher>,
    l2: Cache,
    /// Snoop filter: L2 line address -> presence bitmask over cores' L1D.
    dir: HashMap<u64, u16>,
    dram: Dram,
    /// Prefetches still in flight: PA line address -> ready cycle.
    inflight: HashMap<u64, u64>,
    /// Per-core contributions to shared-L2 demand (hits, misses).
    l2_demand: Vec<(u64, u64)>,
    /// Per-core late prefetches (demand arrived while the fill was
    /// still in flight).
    prefetches_late: Vec<u64>,
    /// Coherence stats.
    snoops_filtered: u64,
    snoops_sent: u64,
    probe_candidates: u64,
    snoops_suppressed: u64,
    c2c_transfers: u64,
    coh_invalidations: u64,
    coh_downgrades: u64,
    coh_upgrades: u64,
    walk_cycles: u64,
    /// Requester-major snoop-traffic matrix (`cores * cores` entries);
    /// sums to `snoops_sent`.
    snoop_matrix: Vec<u64>,
    /// Per-core always-on 3C+coherence miss classifiers.
    cls: Vec<MissClassifier>,
    /// Per-core, per-stream-slot prefetch scorecard.
    pf_score: Vec<Vec<StreamScore>>,
    /// Per-core ownership of not-yet-demanded prefetched L1D lines:
    /// line address -> stream-table slot that prefetched it.
    pf_owner: Vec<HashMap<u64, usize>>,
    line_bytes: u64,
    /// When `Some`, every public access is appended here (epoch replay).
    recorder: Option<Vec<MemOp>>,
    /// When `Some`, every modeled action emits a structured event.
    /// Unlike the recorder, the tracer is NOT suspended during
    /// [`Self::apply_op`]: replayed operations advance this instance's
    /// counters, so their events belong in this instance's stream (the
    /// cluster master's stream is the canonical one).
    tracer: Option<MemTracer>,
}

impl MemSystem {
    /// Builds the hierarchy from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MemConfig::validate`]).
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate().expect("invalid memory configuration");
        let cores = cfg.cores;
        let l1d_lines = cfg.l1d_kib as usize * 1024 / cfg.line_bytes as usize;
        MemSystem {
            l1i: (0..cores)
                .map(|_| Cache::new("L1I", cfg.l1i_kib, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            l1d: (0..cores)
                .map(|_| Cache::new("L1D", cfg.l1d_kib, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            tlbs: (0..cores)
                .map(|_| Tlb::new(cfg.utlb_entries, cfg.jtlb_sets))
                .collect(),
            pfs: (0..cores)
                .map(|_| Prefetcher::new(cfg.prefetch, cfg.line_bytes))
                .collect(),
            l2: Cache::new("L2", cfg.l2_kib, cfg.l2_ways, cfg.line_bytes),
            dir: HashMap::new(),
            dram: Dram::new(cfg.dram_latency, cfg.dram_transfer),
            inflight: HashMap::new(),
            l2_demand: vec![(0, 0); cores],
            prefetches_late: vec![0; cores],
            snoops_filtered: 0,
            snoops_sent: 0,
            probe_candidates: 0,
            snoops_suppressed: 0,
            c2c_transfers: 0,
            coh_invalidations: 0,
            coh_downgrades: 0,
            coh_upgrades: 0,
            walk_cycles: 0,
            snoop_matrix: vec![0; cores * cores],
            cls: (0..cores).map(|_| MissClassifier::new(l1d_lines, cfg.line_bytes)).collect(),
            pf_score: vec![vec![StreamScore::default(); cfg.prefetch.max_streams]; cores],
            pf_owner: vec![HashMap::new(); cores],
            line_bytes: cfg.line_bytes as u64,
            recorder: None,
            tracer: None,
            cfg,
        }
    }

    /// Starts logging every public access for later [`Self::apply_op`]
    /// replay. The log is drained with [`Self::take_log`].
    pub fn start_recording(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Drains the recorded access log (empty if not recording).
    pub fn take_log(&mut self) -> Vec<MemOp> {
        match self.recorder.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Attaches a fresh [`MemTracer`]: from now on every modeled action
    /// appends one structured event. Purely observational — no latency
    /// or counter changes.
    pub fn start_tracing(&mut self) {
        self.tracer = Some(MemTracer::new());
    }

    /// Detaches and returns the tracer (with all collected events), if
    /// one was attached.
    pub fn stop_tracing(&mut self) -> Option<MemTracer> {
        self.tracer.take()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&MemTracer> {
        self.tracer.as_ref()
    }

    #[inline]
    fn emit(&mut self, cycle: u64, core: usize, addr: u64, kind: MemEventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.events.push(MemEvent {
                cycle,
                core,
                addr,
                kind,
            });
        }
    }

    /// Replays one recorded access on behalf of `core`, reproducing its
    /// state side effects (the returned latency is discarded). The
    /// recorder is suspended for the duration so replayed traffic never
    /// pollutes this instance's own log; the tracer is NOT suspended —
    /// replayed operations advance this instance's counters, so their
    /// events must appear in this instance's stream for
    /// [`MemTracer::reconcile`] to hold.
    pub fn apply_op(&mut self, core: usize, op: &MemOp) {
        let saved = self.recorder.take();
        match *op {
            MemOp::IFetch { cycle, pa } => {
                let _ = self.icache_fetch(core, cycle, pa);
            }
            MemOp::Load { cycle, va, pa } => {
                let _ = self.dload(core, cycle, va, pa);
            }
            MemOp::Store { cycle, va, pa } => {
                let _ = self.dstore(core, cycle, va, pa);
            }
            MemOp::FlushAll => self.dcache_flush_all(core),
        }
        self.recorder = saved;
    }

    /// The active configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn line_of(&self, pa: u64) -> u64 {
        pa & !(self.line_bytes - 1)
    }

    /// Issues a DRAM line request at cycle `at` (for `line`, on behalf
    /// of `core`) and emits the corresponding event, including whether
    /// the request queued behind the channel.
    fn dram_access(&mut self, core: usize, at: u64, line: u64) -> u64 {
        let queued_before = self.dram.queued;
        let done = self.dram.access(at);
        let queued = self.dram.queued > queued_before;
        self.emit(at, core, line, MemEventKind::DramRequest { queued });
        done
    }

    /// Other cores currently holding the line in L1D (via the snoop
    /// filter, then verified against the actual caches).
    fn sharers(&mut self, core: usize, cycle: u64, line: u64) -> Vec<usize> {
        let mask = self.dir.get(&line).copied().unwrap_or(0) & !(1u16 << core);
        if mask == 0 {
            self.snoops_filtered += 1;
            self.emit(cycle, core, line, MemEventKind::SnoopFiltered);
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in 0..self.cfg.cores {
            if mask & (1 << c) != 0 {
                self.probe_candidates += 1;
                if self.l1d[c].contains(line) {
                    self.snoops_sent += 1;
                    self.snoop_matrix[core * self.cfg.cores + c] += 1;
                    self.emit(
                        cycle,
                        core,
                        line,
                        MemEventKind::SnoopProbe {
                            holder: c,
                            sent: true,
                        },
                    );
                    out.push(c);
                } else {
                    // directory said "maybe", cache says "gone": the probe
                    // is suppressed rather than sent
                    self.snoops_suppressed += 1;
                    self.emit(
                        cycle,
                        core,
                        line,
                        MemEventKind::SnoopProbe {
                            holder: c,
                            sent: false,
                        },
                    );
                }
            }
        }
        out
    }

    /// A prefetched L1D line left core `core`'s cache (eviction,
    /// invalidation, flush) before any demand touch: charge the issuing
    /// stream's `useless` column.
    fn pf_useless(&mut self, cycle: u64, core: usize, line: u64) {
        if let Some(slot) = self.pf_owner[core].remove(&line) {
            self.pf_score[core][slot].useless += 1;
            self.emit(cycle, core, line, MemEventKind::PrefetchUseless { stream: slot });
        }
    }

    /// Brings a line into the L2 (if absent), returning the ready cycle.
    /// Handles inclusive back-invalidation on L2 eviction. The access is
    /// demand traffic attributed to `core` (see [`MemStats::l2_demand`]).
    fn l2_fill_path(&mut self, core: usize, cycle: u64, pa: u64, prefetched: bool) -> u64 {
        let line = self.line_of(pa);
        match self.l2.access(pa, false) {
            ProbeResult::Hit { .. } => {
                self.l2_demand[core].0 += 1;
                self.emit(cycle, core, line, MemEventKind::L2Access { hit: true });
                cycle + self.cfg.l2_hit
            }
            _ => {
                self.l2_demand[core].1 += 1;
                self.emit(cycle, core, line, MemEventKind::L2Access { hit: false });
                // merge with an in-flight prefetch if present
                if let Some(&ready) = self.inflight.get(&line) {
                    if ready > cycle {
                        return ready;
                    }
                    self.inflight.remove(&line);
                }
                let done = self.dram_access(core, cycle + self.cfg.l2_hit, line);
                if let Some(victim) = self.l2.fill(pa, LineState::Exclusive, prefetched) {
                    self.emit(
                        cycle,
                        core,
                        victim.addr,
                        MemEventKind::Eviction {
                            level: Level::L2,
                            dirty: victim.state.is_dirty(),
                            wasted_prefetch: victim.wasted_prefetch,
                        },
                    );
                    self.back_invalidate(cycle, core, victim.addr);
                    if victim.state.is_dirty() {
                        // writeback occupies the channel
                        self.emit(
                            cycle,
                            core,
                            victim.addr,
                            MemEventKind::Writeback { level: Level::L2 },
                        );
                        let _ = self.dram_access(core, cycle, victim.addr);
                    }
                }
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::Fill {
                        level: Level::L2,
                        state: LineState::Exclusive,
                        prefetched,
                    },
                );
                done
            }
        }
    }

    /// Inclusive property: an L2 eviction removes the line from all L1s.
    /// `requester` is the core whose fill triggered the eviction (events
    /// are attributed to it).
    fn back_invalidate(&mut self, cycle: u64, requester: usize, line_addr: u64) {
        let line = self.line_of(line_addr);
        if let Some(mask) = self.dir.remove(&line) {
            for c in 0..self.cfg.cores {
                if mask & (1 << c) != 0 {
                    // inclusion victim: the classifier drops the line
                    // without a coherence mark (documented limit — the
                    // next miss classifies as capacity)
                    self.cls[c].on_back_invalidate(line);
                    if self.l1d[c].set_state(line, LineState::Invalid).is_some() {
                        self.emit(
                            cycle,
                            requester,
                            line,
                            MemEventKind::BackInvalidate {
                                victim: c,
                                level: Level::L1D,
                            },
                        );
                    }
                    self.pf_useless(cycle, c, line);
                }
            }
        }
        for c in 0..self.cfg.cores {
            if self.l1i[c].set_state(line, LineState::Invalid).is_some() {
                self.emit(
                    cycle,
                    requester,
                    line,
                    MemEventKind::BackInvalidate {
                        victim: c,
                        level: Level::L1I,
                    },
                );
            }
        }
    }

    fn note_l1d_fill(&mut self, core: usize, pa: u64) {
        let line = self.line_of(pa);
        *self.dir.entry(line).or_insert(0) |= 1 << core;
    }

    fn note_l1d_evict(&mut self, core: usize, line_addr: u64) {
        let line = self.line_of(line_addr);
        if let Some(mask) = self.dir.get_mut(&line) {
            *mask &= !(1u16 << core);
            if *mask == 0 {
                self.dir.remove(&line);
            }
        }
    }

    // ---- public access paths ----

    /// Instruction fetch of the line containing `pa`. Returns the ready
    /// cycle (L1I hit = `cycle`, so sequential fetch is free). The IFU
    /// prefetches the next lines sequentially (IBUF fetch-ahead, §III),
    /// so straight-line code does not pay DRAM latency per line.
    pub fn icache_fetch(&mut self, core: usize, cycle: u64, pa: u64) -> u64 {
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::IFetch { cycle, pa });
        }
        let line = self.line_of(pa);
        let done = match self.l1i[core].access(pa, false) {
            ProbeResult::Hit { was_prefetched } => {
                self.emit(cycle, core, line, MemEventKind::L1IAccess { hit: true });
                if was_prefetched {
                    // instruction-side prefetches have no stream table
                    self.emit(
                        cycle,
                        core,
                        line,
                        MemEventKind::PrefetchUseful {
                            level: Level::L1I,
                            stream: None,
                        },
                    );
                }
                match self.inflight.get(&line) {
                    Some(&ready) if ready > cycle => {
                        if was_prefetched {
                            self.prefetches_late[core] += 1;
                            self.emit(
                                cycle,
                                core,
                                line,
                                MemEventKind::PrefetchLate {
                                    level: Level::L1I,
                                    stream: None,
                                },
                            );
                        }
                        ready
                    }
                    _ => {
                        self.inflight.remove(&line);
                        cycle
                    }
                }
            }
            _ => {
                self.emit(cycle, core, line, MemEventKind::L1IAccess { hit: false });
                let done = self.l2_fill_path(core, cycle, pa, false);
                if let Some(v) = self.l1i[core].fill(pa, LineState::Shared, false) {
                    self.emit(
                        cycle,
                        core,
                        v.addr,
                        MemEventKind::Eviction {
                            level: Level::L1I,
                            dirty: false,
                            wasted_prefetch: v.wasted_prefetch,
                        },
                    );
                }
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::Fill {
                        level: Level::L1I,
                        state: LineState::Shared,
                        prefetched: false,
                    },
                );
                done
            }
        };
        // sequential instruction-line prefetch into L1I
        for k in 1..=2u64 {
            let npa = pa.wrapping_add(k * self.line_bytes);
            let nline = self.line_of(npa);
            if self.l1i[core].contains(npa) || self.inflight.contains_key(&nline) {
                continue;
            }
            let ready = if self.l2.contains(npa) {
                cycle + self.cfg.l2_hit
            } else {
                let r = self.dram_access(core, cycle, nline);
                if let Some(victim) = self.l2.fill(npa, LineState::Exclusive, true) {
                    self.emit(
                        cycle,
                        core,
                        victim.addr,
                        MemEventKind::Eviction {
                            level: Level::L2,
                            dirty: victim.state.is_dirty(),
                            wasted_prefetch: victim.wasted_prefetch,
                        },
                    );
                    self.back_invalidate(cycle, core, victim.addr);
                }
                self.emit(
                    cycle,
                    core,
                    nline,
                    MemEventKind::Fill {
                        level: Level::L2,
                        state: LineState::Exclusive,
                        prefetched: true,
                    },
                );
                r
            };
            if let Some(v) = self.l1i[core].fill(npa, LineState::Shared, true) {
                self.emit(
                    cycle,
                    core,
                    v.addr,
                    MemEventKind::Eviction {
                        level: Level::L1I,
                        dirty: false,
                        wasted_prefetch: v.wasted_prefetch,
                    },
                );
            }
            self.emit(
                cycle,
                core,
                nline,
                MemEventKind::Fill {
                    level: Level::L1I,
                    state: LineState::Shared,
                    prefetched: true,
                },
            );
            self.emit(
                cycle,
                core,
                nline,
                MemEventKind::PrefetchFill {
                    level: Level::L1I,
                    stream: None,
                },
            );
            self.inflight.insert(nline, ready);
        }
        done
    }

    /// Translates `va` on core `core`, charging µTLB/jTLB/walk costs.
    /// `pa` is the known physical target (from the functional trace); on
    /// a miss the mapping is installed so later accesses hit.
    /// Returns the cycle when translation is available.
    pub fn translate(&mut self, core: usize, cycle: u64, va: u64, pa: u64) -> u64 {
        match self.tlbs[core].lookup(va) {
            TlbResult::MicroHit { .. } => {
                self.emit(cycle, core, va, MemEventKind::TlbMicroHit);
                cycle + self.cfg.utlb_hit
            }
            TlbResult::JointHit { probes, .. } => {
                self.emit(cycle, core, va, MemEventKind::TlbJointHit { probes });
                cycle + self.cfg.jtlb_hit * probes as u64
            }
            TlbResult::Miss => {
                let start = cycle + self.cfg.jtlb_hit * 3;
                let done = self.walk(core, start, va);
                let asid = self.tlbs[core].asid;
                self.tlbs[core].install(Mapping {
                    va,
                    pa,
                    size: PageSize::P4K,
                    asid,
                    global: false,
                });
                self.walk_cycles += done - cycle;
                self.emit(
                    cycle,
                    core,
                    va,
                    MemEventKind::TlbWalk {
                        cycles: done - cycle,
                    },
                );
                done
            }
        }
    }

    /// Hardware page walk: three dependent PTE reads through the cache
    /// hierarchy (so PTE lines cache in L2 and later walks are cheap).
    fn walk(&mut self, core: usize, cycle: u64, va: u64) -> u64 {
        let mut t = cycle;
        for level in 0..3u64 {
            let pte_pa = self.pte_addr(va, level);
            t = self.pte_read(core, t, pte_pa);
        }
        t
    }

    /// Synthetic PTE address: adjacent virtual pages share leaf PTE lines
    /// (8 PTEs per 64-byte line), like a real radix table.
    fn pte_addr(&self, va: u64, level: u64) -> u64 {
        let vpn = va >> 12;
        match level {
            0 => PTE_REGION + 0x4000_0000 + (vpn >> 18) * 8,
            1 => PTE_REGION + 0x2000_0000 + (vpn >> 9) * 8,
            _ => PTE_REGION + vpn * 8,
        }
    }

    /// A PTE read: the hardware walker fetches from the L2 (PTE lines
    /// are not installed in the L1D, as in most real walkers), so later
    /// walks to nearby pages hit the L2.
    fn pte_read(&mut self, core: usize, cycle: u64, pa: u64) -> u64 {
        self.l2_fill_path(core, cycle, pa, false)
    }

    /// Data load at (`va`, `pa`). Returns the completion cycle.
    pub fn dload(&mut self, core: usize, cycle: u64, va: u64, pa: u64) -> u64 {
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::Load { cycle, va, pa });
        }
        let after_tlb = self.translate(core, cycle, va, pa);
        self.run_prefetcher(core, after_tlb, va, pa);
        self.data_path(core, after_tlb, pa, false)
    }

    /// Data store at (`va`, `pa`). Returns the completion cycle (store
    /// commit into the cache).
    pub fn dstore(&mut self, core: usize, cycle: u64, va: u64, pa: u64) -> u64 {
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::Store { cycle, va, pa });
        }
        let after_tlb = self.translate(core, cycle, va, pa);
        self.run_prefetcher(core, after_tlb, va, pa);
        self.data_path(core, after_tlb, pa, true)
    }

    fn data_path(&mut self, core: usize, cycle: u64, pa: u64, is_store: bool) -> u64 {
        let line = self.line_of(pa);
        match self.l1d[core].access(pa, is_store) {
            ProbeResult::Hit { was_prefetched } => {
                self.cls[core].on_hit(line);
                self.emit(cycle, core, line, MemEventKind::L1DHit { store: is_store });
                let mut slot = None;
                if was_prefetched {
                    // first demand touch of a prefetched line
                    slot = self.pf_owner[core].remove(&line);
                    if let Some(s) = slot {
                        self.pf_score[core][s].useful += 1;
                    }
                    self.emit(
                        cycle,
                        core,
                        line,
                        MemEventKind::PrefetchUseful {
                            level: Level::L1D,
                            stream: slot,
                        },
                    );
                }
                // if the line is an in-flight prefetch, wait for it
                if let Some(&ready) = self.inflight.get(&line) {
                    if ready > cycle {
                        if was_prefetched {
                            self.prefetches_late[core] += 1;
                            if let Some(s) = slot {
                                self.pf_score[core][s].late += 1;
                            }
                            self.emit(
                                cycle,
                                core,
                                line,
                                MemEventKind::PrefetchLate {
                                    level: Level::L1D,
                                    stream: slot,
                                },
                            );
                        }
                        return ready.max(cycle + self.cfg.l1_hit);
                    }
                    self.inflight.remove(&line);
                }
                cycle + self.cfg.l1_hit
            }
            ProbeResult::UpgradeNeeded { was_prefetched } => {
                // a hit for the classifier and the scorecard, even though
                // the store still needs a coherence upgrade
                self.cls[core].on_hit(line);
                if was_prefetched {
                    let slot = self.pf_owner[core].remove(&line);
                    if let Some(s) = slot {
                        self.pf_score[core][s].useful += 1;
                    }
                    self.emit(
                        cycle,
                        core,
                        line,
                        MemEventKind::PrefetchUseful {
                            level: Level::L1D,
                            stream: slot,
                        },
                    );
                }
                // invalidate other sharers through the snoop filter
                self.coh_upgrades += 1;
                self.emit(cycle, core, line, MemEventKind::CohUpgrade);
                let sharers = self.sharers(core, cycle, line);
                let mut extra = self.cfg.l2_hit; // upgrade round-trip
                for c in sharers {
                    if self.l1d[c].state_of(line).is_dirty() {
                        extra += self.cfg.c2c_penalty;
                        self.c2c_transfers += 1;
                        self.emit(cycle, core, line, MemEventKind::C2CTransfer { from: c });
                    }
                    self.l1d[c].set_state(line, LineState::Invalid);
                    self.note_l1d_evict(c, line);
                    self.coh_invalidations += 1;
                    self.emit(cycle, core, line, MemEventKind::CohInvalidate { victim: c });
                    self.cls[c].on_coherence_invalidate(line);
                    self.pf_useless(cycle, c, line);
                }
                self.l1d[core].set_state(line, LineState::Modified);
                cycle + self.cfg.l1_hit + extra
            }
            ProbeResult::Miss => {
                let class = self.cls[core].on_miss(line);
                debug_assert_eq!(
                    self.l1d[core].misses,
                    self.cls[core].total(),
                    "miss-class conservation: l1d misses == compulsory+capacity+conflict+coherence"
                );
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::L1DMiss {
                        store: is_store,
                        class,
                    },
                );
                let sharers = self.sharers(core, cycle, line);
                let mut c2c = 0;
                let mut fill_state = if is_store {
                    LineState::Modified
                } else if sharers.is_empty() {
                    LineState::Exclusive
                } else {
                    LineState::Shared
                };
                for c in &sharers {
                    let st = self.l1d[*c].state_of(line);
                    if is_store {
                        if st.is_dirty() {
                            c2c = self.cfg.c2c_penalty;
                            self.c2c_transfers += 1;
                            self.emit(cycle, core, line, MemEventKind::C2CTransfer { from: *c });
                        }
                        self.l1d[*c].set_state(line, LineState::Invalid);
                        self.note_l1d_evict(*c, line);
                        self.coh_invalidations += 1;
                        self.emit(cycle, core, line, MemEventKind::CohInvalidate { victim: *c });
                        self.cls[*c].on_coherence_invalidate(line);
                        self.pf_useless(cycle, *c, line);
                    } else if st == LineState::Modified {
                        // dirty sharing: supplier keeps an Owned copy
                        self.l1d[*c].set_state(line, LineState::Owned);
                        c2c = self.cfg.c2c_penalty;
                        self.c2c_transfers += 1;
                        self.emit(cycle, core, line, MemEventKind::C2CTransfer { from: *c });
                        fill_state = LineState::Shared;
                        self.coh_downgrades += 1;
                        self.emit(
                            cycle,
                            core,
                            line,
                            MemEventKind::CohDowngrade {
                                victim: *c,
                                to: LineState::Owned,
                            },
                        );
                    } else if st == LineState::Exclusive {
                        self.l1d[*c].set_state(line, LineState::Shared);
                        fill_state = LineState::Shared;
                        self.coh_downgrades += 1;
                        self.emit(
                            cycle,
                            core,
                            line,
                            MemEventKind::CohDowngrade {
                                victim: *c,
                                to: LineState::Shared,
                            },
                        );
                    }
                }
                let done = self.l2_fill_path(core, cycle + self.cfg.l1_hit, pa, false);
                if let Some(v) = self.l1d[core].fill(pa, fill_state, false) {
                    self.note_l1d_evict(core, v.addr);
                    self.pf_useless(cycle, core, v.addr);
                    self.emit(
                        cycle,
                        core,
                        v.addr,
                        MemEventKind::Eviction {
                            level: Level::L1D,
                            dirty: v.state.is_dirty(),
                            wasted_prefetch: v.wasted_prefetch,
                        },
                    );
                    if v.state.is_dirty() {
                        self.l2.set_state(v.addr, LineState::Modified);
                        self.emit(cycle, core, v.addr, MemEventKind::Writeback { level: Level::L1D });
                    }
                }
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::Fill {
                        level: Level::L1D,
                        state: fill_state,
                        prefetched: false,
                    },
                );
                self.note_l1d_fill(core, pa);
                // MSHR merge: later accesses to this line wait for the fill
                let done = done + c2c;
                if done > cycle + self.cfg.l1_hit {
                    self.inflight.insert(line, done);
                }
                done
            }
        }
    }

    /// Feeds the prefetch engine and issues its requests.
    fn run_prefetcher(&mut self, core: usize, cycle: u64, va: u64, pa: u64) {
        let pf_cfg = *self.pfs[core].config();
        if !pf_cfg.enabled() {
            return;
        }
        let (reqs, confirmed) = self.pfs[core].on_access(va);
        if let Some(slot) = confirmed {
            self.emit(
                cycle,
                core,
                self.line_of(pa),
                MemEventKind::StreamConfirmed { stream: slot },
            );
        }
        if reqs.is_empty() {
            return;
        }
        // L1 prefetch reaches `distance` lines; with the L2 prefetcher on,
        // a second engine runs the same stream further ahead into L2 only.
        let l1_reach = pf_cfg.distance.lines() * self.line_bytes;
        for req in reqs {
            let delta = req.va.wrapping_sub(va);
            let req_pa = pa.wrapping_add(delta);
            let line = self.line_of(req_pa);
            // issued counts every emitted request, including ones the
            // fill path below elides (mirrors `Prefetcher::issued`)
            self.pf_score[core][req.stream].issued += 1;
            self.emit(cycle, core, line, MemEventKind::PrefetchIssue { stream: req.stream });
            // cross-page handling
            if (req.va >> 12) != (va >> 12)
                && pf_cfg.tlb {
                    // §V-C: request the next-page translation automatically
                    let asid = self.tlbs[core].asid;
                    if !self.tlbs[core].peek(req.va) {
                        self.tlbs[core].install_prefetch(Mapping {
                            va: req.va,
                            pa: req_pa,
                            size: PageSize::P4K,
                            asid,
                            global: false,
                        });
                    }
                }
                // Without TLB prefetch the physical prefetch stream
                // continues (sequential pages are physically contiguous
                // here), but the demand access at the new page pays its
                // own jTLB probes / walk — the small Fig. 21 (d) vs (e)
                // delta.
            // skip only if a fill for this line is genuinely in flight;
            // drop entries that completed long ago (earlier phases)
            match self.inflight.get(&line) {
                Some(&r) if r > cycle => continue,
                Some(_) => {
                    self.inflight.remove(&line);
                }
                None => {}
            }
            let into_l1 = pf_cfg.l1 && delta <= l1_reach;
            if into_l1 && self.l1d[core].contains(req_pa) {
                continue;
            }
            if !into_l1 && self.l2.contains(req_pa) {
                continue;
            }
            // issue: DRAM fill unless L2 already has it
            let ready = if self.l2.contains(req_pa) {
                cycle + self.cfg.l2_hit
            } else {
                let done = self.dram_access(core, cycle, line);
                if let Some(victim) = self.l2.fill(req_pa, LineState::Exclusive, true) {
                    self.emit(
                        cycle,
                        core,
                        victim.addr,
                        MemEventKind::Eviction {
                            level: Level::L2,
                            dirty: victim.state.is_dirty(),
                            wasted_prefetch: victim.wasted_prefetch,
                        },
                    );
                    self.back_invalidate(cycle, core, victim.addr);
                }
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::Fill {
                        level: Level::L2,
                        state: LineState::Exclusive,
                        prefetched: true,
                    },
                );
                done
            };
            if into_l1 {
                if let Some(v) = self.l1d[core].fill(req_pa, LineState::Exclusive, true) {
                    self.note_l1d_evict(core, v.addr);
                    self.pf_useless(cycle, core, v.addr);
                    self.emit(
                        cycle,
                        core,
                        v.addr,
                        MemEventKind::Eviction {
                            level: Level::L1D,
                            dirty: v.state.is_dirty(),
                            wasted_prefetch: v.wasted_prefetch,
                        },
                    );
                    if v.state.is_dirty() {
                        self.l2.set_state(v.addr, LineState::Modified);
                        self.emit(cycle, core, v.addr, MemEventKind::Writeback { level: Level::L1D });
                    }
                }
                self.note_l1d_fill(core, req_pa);
                self.pf_owner[core].insert(line, req.stream);
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::Fill {
                        level: Level::L1D,
                        state: LineState::Exclusive,
                        prefetched: true,
                    },
                );
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::PrefetchFill {
                        level: Level::L1D,
                        stream: Some(req.stream),
                    },
                );
            } else {
                self.emit(
                    cycle,
                    core,
                    line,
                    MemEventKind::PrefetchFill {
                        level: Level::L2,
                        stream: Some(req.stream),
                    },
                );
            }
            self.inflight.insert(line, ready);
        }
    }

    // ---- maintenance operations (custom extensions / OS events) ----

    /// `x.dcache.call`: clean+invalidate the whole L1D of `core`.
    /// Maintenance operations are untimed; their events carry cycle 0.
    pub fn dcache_flush_all(&mut self, core: usize) {
        if let Some(log) = self.recorder.as_mut() {
            log.push(MemOp::FlushAll);
        }
        let dirty = self.l1d[core].invalidate_all();
        self.emit(0, core, 0, MemEventKind::CacheFlush { dirty_lines: dirty });
        // every not-yet-demanded prefetched line is gone: charge the
        // issuing streams (drained in sorted order for determinism)
        let mut owned: Vec<u64> = self.pf_owner[core].keys().copied().collect();
        owned.sort_unstable();
        for line in owned {
            self.pf_useless(0, core, line);
        }
        self.cls[core].on_flush();
        // rebuild the snoop filter without this core
        for mask in self.dir.values_mut() {
            *mask &= !(1u16 << core);
        }
        self.dir.retain(|_, m| *m != 0);
    }

    /// Context switch on `core` to `asid`. A 16-bit-ASID design just
    /// retags; a narrow design that overflowed must flush (§V-E).
    pub fn context_switch(&mut self, core: usize, asid: u16, must_flush: bool) {
        if must_flush {
            self.tlbs[core].flush_all();
            self.emit(0, core, 0, MemEventKind::TlbFlush);
        }
        self.tlbs[core].asid = asid;
    }

    /// Hardware TLB-maintenance broadcast (§V-E): every core drops the
    /// mappings for (`va`, `asid`) without IPIs.
    pub fn tlb_broadcast_invalidate(&mut self, va: u64, asid: u16) {
        for t in &mut self.tlbs {
            t.flush_va(va, asid);
        }
    }

    /// Direct access to a core's TLB (tests, SoC layer). Mutations made
    /// through this handle bypass tracing and the classifier.
    pub fn tlb_mut(&mut self, core: usize) -> &mut Tlb {
        &mut self.tlbs[core]
    }

    /// Direct access to a core's L1D (tests).
    pub fn l1d(&self, core: usize) -> &Cache {
        &self.l1d[core]
    }

    /// Shared L2 (tests).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Collects a statistics snapshot.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.iter().map(|c| (c.hits, c.misses)).collect(),
            l1d: self.l1d.iter().map(|c| (c.hits, c.misses)).collect(),
            miss_compulsory: self.cls.iter().map(|c| c.compulsory).collect(),
            miss_capacity: self.cls.iter().map(|c| c.capacity).collect(),
            miss_conflict: self.cls.iter().map(|c| c.conflict).collect(),
            miss_coherence: self.cls.iter().map(|c| c.coherence).collect(),
            l2_demand: self.l2_demand.clone(),
            tlb_micro_hits: self.tlbs.iter().map(|t| t.micro_hits).collect(),
            tlb_joint_hits: self.tlbs.iter().map(|t| t.joint_hits).collect(),
            tlb_walks: self.tlbs.iter().map(|t| t.walks).collect(),
            tlb_flushes: self.tlbs.iter().map(|t| t.flushes).collect(),
            prefetches_issued: self.pfs.iter().map(|p| p.issued).collect(),
            prefetches_useful: self.l1d.iter().map(|c| c.useful_prefetches).collect(),
            prefetches_late: self.prefetches_late.clone(),
            prefetch_streams: self.pfs.iter().map(|p| p.streams_confirmed).collect(),
            pf_scorecard: self.pf_score.clone(),
            dram_requests: self.dram.requests,
            dram_queued: self.dram.queued,
            snoops_filtered: self.snoops_filtered,
            snoops_sent: self.snoops_sent,
            probe_candidates: self.probe_candidates,
            snoops_suppressed: self.snoops_suppressed,
            snoop_matrix: self.snoop_matrix.clone(),
            c2c_transfers: self.c2c_transfers,
            coh_invalidations: self.coh_invalidations,
            coh_downgrades: self.coh_downgrades,
            coh_upgrades: self.coh_upgrades,
            walk_cycles: self.walk_cycles,
        }
    }
}

/// Encodes one [`MemOp`] (tagged).
pub fn save_mem_op(e: &mut xt_snapshot::Enc, op: &MemOp) {
    match *op {
        MemOp::IFetch { cycle, pa } => {
            e.u8(0);
            e.u64(cycle);
            e.u64(pa);
        }
        MemOp::Load { cycle, va, pa } => {
            e.u8(1);
            e.u64(cycle);
            e.u64(va);
            e.u64(pa);
        }
        MemOp::Store { cycle, va, pa } => {
            e.u8(2);
            e.u64(cycle);
            e.u64(va);
            e.u64(pa);
        }
        MemOp::FlushAll => e.u8(3),
    }
}

/// Decodes one [`MemOp`] written by [`save_mem_op`].
pub fn restore_mem_op(d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<MemOp> {
    Ok(match d.u8()? {
        0 => MemOp::IFetch {
            cycle: d.u64()?,
            pa: d.u64()?,
        },
        1 => MemOp::Load {
            cycle: d.u64()?,
            va: d.u64()?,
            pa: d.u64()?,
        },
        2 => MemOp::Store {
            cycle: d.u64()?,
            va: d.u64()?,
            pa: d.u64()?,
        },
        3 => MemOp::FlushAll,
        _ => return Err(xt_snapshot::SnapshotError::Corrupt { what: "mem op tag" }),
    })
}

impl xt_snapshot::SnapshotState for MemSystem {
    /// Captures the whole hierarchy: per-core L1s/TLBs/prefetchers, the
    /// shared L2, snoop-filter directory, in-flight fills, DRAM channel
    /// occupancy, every coherence/walk counter, the epoch-replay
    /// recorder, the snoop matrix, the prefetch scorecard with its
    /// line-ownership map, the per-core miss classifiers, and the
    /// optional tracer (with its event buffer), so traced runs resume
    /// byte-exact. Hash maps are written in sorted key order so the
    /// encoding is canonical.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.usize(self.cfg.cores);
        for c in self.l1i.iter().chain(self.l1d.iter()) {
            c.save(e);
        }
        for t in &self.tlbs {
            t.save(e);
        }
        for p in &self.pfs {
            p.save(e);
        }
        self.l2.save(e);
        let mut dir: Vec<(u64, u16)> = self.dir.iter().map(|(k, v)| (*k, *v)).collect();
        dir.sort_unstable();
        e.seq(dir.len());
        for (line, mask) in dir {
            e.u64(line);
            e.u16(mask);
        }
        self.dram.save(e);
        let mut inflight: Vec<(u64, u64)> = self.inflight.iter().map(|(k, v)| (*k, *v)).collect();
        inflight.sort_unstable();
        e.seq(inflight.len());
        for (line, ready) in inflight {
            e.u64(line);
            e.u64(ready);
        }
        e.seq(self.l2_demand.len());
        for (h, m) in &self.l2_demand {
            e.u64(*h);
            e.u64(*m);
        }
        e.u64_seq(&self.prefetches_late);
        e.u64(self.snoops_filtered);
        e.u64(self.snoops_sent);
        e.u64(self.probe_candidates);
        e.u64(self.snoops_suppressed);
        e.u64(self.c2c_transfers);
        e.u64(self.coh_invalidations);
        e.u64(self.coh_downgrades);
        e.u64(self.coh_upgrades);
        e.u64(self.walk_cycles);
        match &self.recorder {
            Some(log) => {
                e.bool(true);
                e.seq(log.len());
                for op in log {
                    save_mem_op(e, op);
                }
            }
            None => e.bool(false),
        }
        e.u64_seq(&self.snoop_matrix);
        e.seq(self.pf_score.len());
        for per in &self.pf_score {
            e.seq(per.len());
            for s in per {
                e.u64(s.issued);
                e.u64(s.useful);
                e.u64(s.late);
                e.u64(s.useless);
            }
        }
        e.seq(self.pf_owner.len());
        for owner in &self.pf_owner {
            let mut pairs: Vec<(u64, usize)> = owner.iter().map(|(k, v)| (*k, *v)).collect();
            pairs.sort_unstable();
            e.seq(pairs.len());
            for (line, slot) in pairs {
                e.u64(line);
                e.usize(slot);
            }
        }
        for c in &self.cls {
            c.save(e);
        }
        match &self.tracer {
            Some(t) => {
                e.bool(true);
                t.save(e);
            }
            None => e.bool(false),
        }
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        use xt_snapshot::SnapshotError;
        if d.usize()? != self.cfg.cores {
            return Err(SnapshotError::Mismatch { what: "core count" });
        }
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.restore(d)?;
        }
        for t in &mut self.tlbs {
            t.restore(d)?;
        }
        for p in &mut self.pfs {
            p.restore(d)?;
        }
        self.l2.restore(d)?;
        let n = d.len(10)?;
        self.dir.clear();
        for _ in 0..n {
            let line = d.u64()?;
            let mask = d.u16()?;
            self.dir.insert(line, mask);
        }
        self.dram.restore(d)?;
        let n = d.len(16)?;
        self.inflight.clear();
        for _ in 0..n {
            let line = d.u64()?;
            let ready = d.u64()?;
            self.inflight.insert(line, ready);
        }
        let n = d.len(16)?;
        if n != self.l2_demand.len() {
            return Err(SnapshotError::Mismatch {
                what: "l2 demand vector",
            });
        }
        for slot in &mut self.l2_demand {
            *slot = (d.u64()?, d.u64()?);
        }
        let late = d.u64_seq()?;
        if late.len() != self.prefetches_late.len() {
            return Err(SnapshotError::Mismatch {
                what: "late prefetch vector",
            });
        }
        self.prefetches_late = late;
        self.snoops_filtered = d.u64()?;
        self.snoops_sent = d.u64()?;
        self.probe_candidates = d.u64()?;
        self.snoops_suppressed = d.u64()?;
        self.c2c_transfers = d.u64()?;
        self.coh_invalidations = d.u64()?;
        self.coh_downgrades = d.u64()?;
        self.coh_upgrades = d.u64()?;
        self.walk_cycles = d.u64()?;
        if d.bool()? {
            let n = d.len(1)?;
            let mut log = Vec::with_capacity(n);
            for _ in 0..n {
                log.push(restore_mem_op(d)?);
            }
            self.recorder = Some(log);
        } else {
            self.recorder = None;
        }
        let matrix = d.u64_seq()?;
        if matrix.len() != self.snoop_matrix.len() {
            return Err(SnapshotError::Mismatch {
                what: "snoop matrix",
            });
        }
        self.snoop_matrix = matrix;
        if d.len(1)? != self.pf_score.len() {
            return Err(SnapshotError::Mismatch {
                what: "scorecard core count",
            });
        }
        for per in &mut self.pf_score {
            if d.len(32)? != per.len() {
                return Err(SnapshotError::Mismatch {
                    what: "scorecard stream count",
                });
            }
            for s in per.iter_mut() {
                s.issued = d.u64()?;
                s.useful = d.u64()?;
                s.late = d.u64()?;
                s.useless = d.u64()?;
            }
        }
        if d.len(1)? != self.pf_owner.len() {
            return Err(SnapshotError::Mismatch {
                what: "prefetch owner core count",
            });
        }
        for owner in &mut self.pf_owner {
            let n = d.len(9)?;
            owner.clear();
            for _ in 0..n {
                let line = d.u64()?;
                let slot = d.usize()?;
                owner.insert(line, slot);
            }
        }
        for c in &mut self.cls {
            c.restore(d)?;
        }
        if d.bool()? {
            let mut t = MemTracer::new();
            t.restore(d)?;
            self.tracer = Some(t);
        } else {
            self.tracer = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchConfig;
    use xt_snapshot::SnapshotState;

    fn sys(cores: usize, pf: PrefetchConfig) -> MemSystem {
        let cfg = MemConfig {
            cores,
            prefetch: pf,
            ..MemConfig::default()
        };
        MemSystem::new(cfg)
    }

    #[test]
    fn load_miss_hits_after_fill() {
        let mut m = sys(1, PrefetchConfig::off());
        let t1 = m.dload(0, 0, 0x9000_0000, 0x9000_0000);
        assert!(t1 >= 200, "cold miss pays DRAM: {t1}");
        let t2 = m.dload(0, t1, 0x9000_0008, 0x9000_0008);
        assert_eq!(t2, t1 + m.config().l1_hit, "same line hits in L1");
    }

    #[test]
    fn icache_sequential_fetch_free_after_fill() {
        let mut m = sys(1, PrefetchConfig::off());
        let t1 = m.icache_fetch(0, 0, 0x8000_0000);
        assert!(t1 > 0);
        let t2 = m.icache_fetch(0, t1, 0x8000_0010);
        assert_eq!(t2, t1, "same line: no extra cost");
    }

    #[test]
    fn prefetch_hides_latency_on_stream() {
        // Walk a long unit-stride stream and compare total time.
        let run = |pf: PrefetchConfig| -> u64 {
            let mut m = sys(1, pf);
            let mut t = 0;
            for k in 0..4096u64 {
                let addr = 0x9000_0000 + k * 8;
                t = m.dload(0, t, addr, addr);
            }
            t
        };
        let off = run(PrefetchConfig::off());
        let small = run(PrefetchConfig::l1_small());
        let large = run(PrefetchConfig::all_large());
        assert!(
            small * 2 < off,
            "L1 prefetch at least 2x on stream: off={off} small={small}"
        );
        assert!(large < small, "large distance faster: {large} vs {small}");
    }

    #[test]
    fn tlb_walks_disappear_with_tlb_prefetch() {
        let run = |pf: PrefetchConfig| -> u64 {
            let mut m = sys(1, pf);
            let mut t = 0;
            for k in 0..(16 * 512u64) {
                // 16 pages of sequential doubles
                let addr = 0x9000_0000 + k * 8;
                t = m.dload(0, t, addr, addr);
            }
            m.stats().total_walks()
        };
        let without = run(PrefetchConfig::no_tlb_large());
        let with = run(PrefetchConfig::all_large());
        assert!(
            with < without,
            "TLB prefetch removes boundary walks: {with} vs {without}"
        );
    }

    #[test]
    fn tlb_prefetch_covers_exactly_the_page_boundary() {
        // stream exactly two pages; the only demand walk with TLB
        // prefetch on is page 0's, because the cross-page prefetch
        // installed page 1's mapping before demand got there
        let run = |pf: PrefetchConfig| -> u64 {
            let mut m = sys(1, pf);
            let mut t = 0;
            for k in 0..(2 * 512u64) {
                let a = 0x9000_0000 + k * 8;
                t = m.dload(0, t, a, a);
            }
            m.stats().total_walks()
        };
        assert_eq!(run(PrefetchConfig::all_large()), 1);
        assert_eq!(run(PrefetchConfig::no_tlb_large()), 2);
    }

    #[test]
    fn coherence_read_sharing_and_write_invalidate() {
        let mut m = sys(2, PrefetchConfig::off());
        let a = 0x9000_0000;
        // core 0 writes the line -> Modified
        let t = m.dstore(0, 0, a, a);
        assert_eq!(m.l1d(0).state_of(a), LineState::Modified);
        // core 1 reads -> dirty sharing: 0 becomes Owned, 1 Shared
        let t2 = m.dload(1, t, a, a);
        assert_eq!(m.l1d(0).state_of(a), LineState::Owned);
        assert_eq!(m.l1d(1).state_of(a), LineState::Shared);
        assert!(t2 > t);
        // core 1 writes -> core 0 invalidated
        let _ = m.dstore(1, t2, a, a);
        assert_eq!(m.l1d(0).state_of(a), LineState::Invalid);
        assert_eq!(m.l1d(1).state_of(a), LineState::Modified);
        let s = m.stats();
        assert!(s.c2c_transfers >= 1);
        assert!(s.snoops_sent >= 1);
    }

    #[test]
    fn snoop_filter_blocks_private_traffic() {
        let mut m = sys(4, PrefetchConfig::off());
        let mut t = 0;
        // each core works on a private region
        for c in 0..4usize {
            for k in 0..64u64 {
                let a = 0x9000_0000 + (c as u64) * 0x10_0000 + k * 64;
                t = m.dload(c, t, a, a);
            }
        }
        let s = m.stats();
        assert_eq!(s.snoops_sent, 0, "no sharing -> no snoops");
        assert!(s.snoops_filtered > 0);
        assert!(s.snoop_matrix.iter().all(|&v| v == 0), "matrix empty too");
    }

    #[test]
    fn asid_switch_without_flush_keeps_entries() {
        let mut m = sys(1, PrefetchConfig::off());
        let a = 0x9000_0000;
        let _ = m.dload(0, 0, a, a);
        assert_eq!(m.stats().total_walks(), 1);
        // 16-bit ASID: switch and come back without flushing
        m.context_switch(0, 1, false);
        m.context_switch(0, 0, false);
        let _ = m.dload(0, 1000, a, a);
        assert_eq!(m.stats().total_walks(), 1, "entry survived the switch");
        // narrow-ASID overflow forces a flush
        m.context_switch(0, 1, true);
        m.context_switch(0, 0, true);
        let _ = m.dload(0, 2000, a, a);
        assert_eq!(m.stats().total_walks(), 2, "flush forced a re-walk");
    }

    #[test]
    fn inclusive_l2_eviction_back_invalidates() {
        // Tiny L2 so we can force evictions.
        let cfg = MemConfig {
            cores: 1,
            l2_kib: 256,
            l2_ways: 8,
            prefetch: PrefetchConfig::off(),
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(cfg);
        let first = 0x9000_0000u64;
        let mut t = m.dload(0, 0, first, first);
        assert!(m.l1d(0).contains(first));
        // storm the same L2 set: set stride = 256KiB/8 = 32KiB
        for k in 1..=8u64 {
            let a = first + k * 32 * 1024;
            t = m.dload(0, t, a, a);
        }
        assert!(
            !m.l1d(0).contains(first),
            "L2 eviction back-invalidated the L1 copy"
        );
    }

    #[test]
    fn walk_cost_drops_when_pte_lines_cache() {
        let mut m = sys(1, PrefetchConfig::off());
        // touch 8 adjacent pages: their leaf PTEs share one line
        let mut t = 0;
        for p in 0..8u64 {
            let a = 0x9000_0000 + p * 4096;
            t = m.dload(0, t, a, a);
        }
        let s = m.stats();
        assert_eq!(s.total_walks(), 8);
        // the first walk pulls the PTE line; later walks hit it in L1D
        assert!(
            s.walk_cycles < 8 * (3 * m.config().dram_latency),
            "walks amortize via cached PTEs: {}",
            s.walk_cycles
        );
    }

    #[test]
    fn recorded_log_replays_to_identical_state() {
        // a recording system and a mirror fed via apply_op must agree
        let mut rec = sys(2, PrefetchConfig::all_large());
        let mut mirror = sys(2, PrefetchConfig::all_large());
        rec.start_recording();
        let mut t = 0;
        for k in 0..256u64 {
            let a = 0x9000_0000 + k * 8;
            t = rec.dload(0, t, a, a);
            if k % 7 == 0 {
                t = rec.dstore(0, t, a, a);
            }
        }
        let _ = rec.icache_fetch(0, t, 0x8000_0000);
        rec.dcache_flush_all(0);
        let log = rec.take_log();
        assert!(!log.is_empty());
        for op in &log {
            mirror.apply_op(0, op);
        }
        // the mirror never recorded, so its own log is empty
        assert!(mirror.take_log().is_empty());
        // replay runs the same calls at the same cycles, so every counter
        // (including the always-on miss classifier and the scorecard)
        // matches exactly
        assert_eq!(rec.stats(), mirror.stats());
    }

    #[test]
    fn snoop_conservation_holds_under_sharing() {
        let mut m = sys(4, PrefetchConfig::off());
        let a = 0x9000_0000u64;
        let mut t = 0;
        // bounce a handful of lines among all four cores
        for round in 0..32u64 {
            for c in 0..4usize {
                let addr = a + (round % 4) * 64;
                t = if (round + c as u64).is_multiple_of(2) {
                    m.dstore(c, t, addr, addr)
                } else {
                    m.dload(c, t, addr, addr)
                };
            }
        }
        let s = m.stats();
        assert!(s.probe_candidates > 0);
        assert_eq!(
            s.snoops_sent + s.snoops_suppressed,
            s.probe_candidates,
            "every candidate probe is either sent or suppressed"
        );
        assert_eq!(
            s.snoop_matrix.iter().sum::<u64>(),
            s.snoops_sent,
            "the matrix decomposes snoops_sent by (requester, holder)"
        );
    }

    #[test]
    fn tlb_broadcast_invalidates_all_cores() {
        let mut m = sys(4, PrefetchConfig::off());
        let a = 0x9000_0000;
        for c in 0..4 {
            let _ = m.dload(c, 0, a, a);
        }
        assert_eq!(m.stats().total_walks(), 4);
        m.tlb_broadcast_invalidate(a, 0);
        for c in 0..4 {
            let _ = m.dload(c, 10_000, a, a);
        }
        assert_eq!(m.stats().total_walks(), 8, "all cores re-walked");
    }

    // ---- observability ----

    /// Drives a mixed workload (stream + sharing + flush) on `m`.
    fn churn(m: &mut MemSystem, cores: usize) {
        let mut t = 0;
        for k in 0..512u64 {
            let a = 0x9000_0000 + k * 8;
            t = m.dload(0, t, a, a);
            if k % 5 == 0 {
                t = m.dstore(0, t, a, a);
            }
            if cores > 1 && k % 3 == 0 {
                let c = 1 + (k as usize % (cores - 1));
                let shared = 0x9000_0000 + (k % 8) * 64;
                t = if k % 6 == 0 {
                    m.dstore(c, t, shared, shared)
                } else {
                    m.dload(c, t, shared, shared)
                };
            }
            if k % 97 == 0 {
                t = m.icache_fetch(0, t, 0x8000_0000 + k * 4);
            }
        }
        m.dcache_flush_all(0);
        for k in 0..64u64 {
            let a = 0x9000_0000 + k * 64;
            t = m.dload(0, t, a, a);
        }
        let _ = t;
    }

    #[test]
    fn miss_class_conservation_on_mixed_workload() {
        for cores in [1usize, 2, 4] {
            let mut m = sys(cores, PrefetchConfig::all_large());
            churn(&mut m, cores);
            let s = m.stats();
            for c in 0..cores {
                assert_eq!(
                    s.miss_class_sum(c),
                    s.l1d[c].1,
                    "core {c} of {cores}: miss classes must sum to misses"
                );
            }
            if cores > 1 {
                assert!(
                    s.miss_coherence.iter().sum::<u64>() > 0,
                    "sharing workload produces coherence misses"
                );
            }
        }
    }

    #[test]
    fn tracing_does_not_change_timing() {
        // identical workloads with and without a tracer attached must
        // produce identical completion cycles and identical stats
        let run = |traced: bool| -> (Vec<u64>, MemStats) {
            let mut m = sys(2, PrefetchConfig::all_large());
            if traced {
                m.start_tracing();
            }
            let mut cycles = Vec::new();
            let mut t = 0;
            for k in 0..384u64 {
                let a = 0x9000_0000 + k * 16;
                t = m.dload(0, t, a, a);
                cycles.push(t);
                if k % 4 == 0 {
                    t = m.dstore(1, t, a, a);
                    cycles.push(t);
                }
            }
            m.dcache_flush_all(1);
            (cycles, m.stats())
        };
        let (plain_cycles, plain_stats) = run(false);
        let (traced_cycles, traced_stats) = run(true);
        assert_eq!(plain_cycles, traced_cycles, "tracing must not change timing");
        assert_eq!(plain_stats, traced_stats, "tracing must not change counters");
    }

    #[test]
    fn traced_events_reconcile_with_stats() {
        for cores in [1usize, 2, 4] {
            let mut m = sys(cores, PrefetchConfig::all_large());
            m.start_tracing();
            churn(&mut m, cores);
            let stats = m.stats();
            let tracer = m.stop_tracing().expect("tracer attached");
            assert!(!tracer.is_empty());
            tracer
                .reconcile(&stats)
                .unwrap_or_else(|e| panic!("{cores} cores: {e}"));
        }
    }

    #[test]
    fn demand_hit_on_inflight_prefetch_is_one_late_not_a_miss() {
        // Pin the late-prefetch accounting: a demand access that hits a
        // prefetched line whose fill is still in flight counts as
        // exactly ONE late prefetch, one L1D *hit*, and zero extra
        // demand misses.
        // A short-distance prefetcher on a unit-stride stream cannot get
        // far enough ahead of DRAM latency, so late prefetches happen
        // repeatedly; check the accounting at every single one.
        let mut m = sys(1, PrefetchConfig::l1_small());
        m.start_tracing();
        let mut t = 0;
        let mut lates = 0u64;
        let mut prev = m.stats();
        for k in 0..64u64 {
            let a = 0x9000_0000 + k * 64;
            t = m.dload(0, t, a, a);
            let now = m.stats();
            let d_late = now.prefetches_late[0] - prev.prefetches_late[0];
            assert!(d_late <= 1, "one access yields at most one late prefetch");
            if d_late == 1 {
                lates += 1;
                assert_eq!(
                    now.l1d[0].1, prev.l1d[0].1,
                    "a late-prefetch touch is NOT a demand miss"
                );
                assert_eq!(now.l1d[0].0, prev.l1d[0].0 + 1, "it is a demand hit");
                assert_eq!(
                    now.prefetches_useful[0],
                    prev.prefetches_useful[0] + 1,
                    "and it counts as useful exactly once"
                );
                // the scorecard tells the same story per slot
                let slot_late: u64 = now.pf_scorecard[0].iter().map(|s| s.late).sum();
                let slot_prev: u64 = prev.pf_scorecard[0].iter().map(|s| s.late).sum();
                assert_eq!(slot_late, slot_prev + 1);
            }
            prev = now;
        }
        assert!(lates > 0, "the stream must exercise the late path");
        let final_stats = m.stats();
        let scored_late: u64 = final_stats.pf_scorecard[0].iter().map(|s| s.late).sum();
        assert_eq!(scored_late, final_stats.prefetches_late[0]);
        assert!(
            final_stats.prefetches_late[0] <= final_stats.prefetches_useful[0],
            "late is a subset of useful"
        );
        // and the event stream agrees with every counter
        let tracer = m.stop_tracing().unwrap();
        tracer.reconcile(&final_stats).expect("events reconcile");
    }

    #[test]
    fn scorecard_tracks_useless_prefetches_on_flush() {
        let mut m = sys(1, PrefetchConfig::l1_small());
        let mut t = 0;
        for k in 0..8u64 {
            let a = 0x9000_0000 + k * 64;
            t = m.dload(0, t, a, a);
        }
        let _ = t;
        // lines were prefetched ahead but never touched; flushing the
        // cache makes them useless
        m.dcache_flush_all(0);
        let s = m.stats();
        let useless: u64 = s.pf_scorecard[0].iter().map(|sc| sc.useless).sum();
        assert!(useless > 0, "flushed prefetches are charged useless");
        let issued: u64 = s.pf_scorecard[0].iter().map(|sc| sc.issued).sum();
        assert_eq!(issued, s.prefetches_issued[0], "slot issued sums to total");
    }

    #[test]
    fn traced_system_snapshot_roundtrips_byte_exact() {
        let mut m = sys(2, PrefetchConfig::all_large());
        m.start_tracing();
        churn(&mut m, 2);
        let mut e = xt_snapshot::Enc::new();
        m.save(&mut e);
        let bytes = e.into_bytes();
        let mut r = sys(2, PrefetchConfig::all_large());
        let mut d = xt_snapshot::Dec::new(&bytes);
        r.restore(&mut d).expect("restore");
        d.finish().expect("fully consumed");
        // byte-exact re-save
        let mut e2 = xt_snapshot::Enc::new();
        r.save(&mut e2);
        assert_eq!(bytes, e2.into_bytes(), "resaved snapshot is byte-exact");
        // the restored tracer continues collecting consistently
        assert_eq!(
            m.tracer().unwrap().len(),
            r.tracer().unwrap().len(),
            "event buffer survived"
        );
        let a = 0x9100_0000u64;
        let t1 = m.dload(0, 1_000_000, a, a);
        let t2 = r.dload(0, 1_000_000, a, a);
        assert_eq!(t1, t2);
        assert_eq!(m.stats(), r.stats());
        assert_eq!(
            m.stop_tracing().unwrap().events,
            r.stop_tracing().unwrap().events
        );
    }
}
