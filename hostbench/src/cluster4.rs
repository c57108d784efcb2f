//! `cluster4`: a 4-core `ClusterSim` on two host threads. Cores 0 and 1
//! run a fenced producer/consumer mailbox; cores 2 and 3 run contended
//! AMO increments on one shared line, interleaved with seeded private
//! streams. Every [`CHECKPOINT_EPOCHS`] epochs the benchmark saves the
//! cluster, restores the frame into a fresh sim and continues on the
//! restored one. One operation per segment between checkpoints.
//!
//! Why: the only workload that runs epoch-barrier replay, snoops and the
//! snapshot codec.

use crate::host::Clock;
use crate::kernels::fig17_err_by_run;
use crate::ledger::{check_exit, cluster_digest, Fnv, Ledger};
use crate::spans::{Layer, SpanId};
use crate::{timed, Pass, Tracer, Workload, THREADS};
use std::cell::OnceCell;
use std::time::Instant;
use xt_asm::{Asm, Program};
use xt_core::CoreConfig;
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::ClusterSim;
use xt_workloads::Rng;

/// Epochs between checkpoints.
pub const CHECKPOINT_EPOCHS: u64 = 24;
/// Epochs per clock window of an untraced segment.
const WINDOW_EPOCHS: u64 = 4;
/// Per-core instruction budget (a safety net; every core halts well
/// before it).
const MAX_INSTS: u64 = 50_000_000;
/// Items the producer hands to the consumer.
const ITEMS: usize = 32;
/// AMO rounds per contending core.
const ROUNDS: usize = 192;
/// Bytes of each core's private stream buffer (walked with wrap-around).
const PRIVATE_BYTES: u64 = 128 * 1024;

/// Shared lines: the mailbox (data, flag), the consumer's ack, and the
/// AMO counter, each on a line of its own except data and flag.
const SHARED: u64 = 0x8200_0000;
const MB_ACK: i64 = 64;
const COUNTER: i64 = 128;

pub struct Cluster4;

/// Generated programs and host expectations, plus the uninterrupted
/// reference runs (made once per run, outside every timed window).
pub struct Inputs {
    pub programs: Vec<Program>,
    pub expected: Vec<u64>,
    reference: OnceCell<Reference>,
}

/// What an uninterrupted run of the same programs produced.
struct Reference {
    /// Digest of the frame at each checkpoint boundary (one thread).
    frames: Vec<u64>,
    /// Report digest with one host thread.
    digest_t1: u64,
    /// Report digest with [`THREADS`] host threads.
    digest_t2: u64,
    t1_ns: u64,
    t2_ns: u64,
    report_t2: xt_soc::ClusterReport,
}

fn private_base(core: u64) -> u64 {
    0x8400_0000 + core * 0x0010_0000
}

/// Seeded private buffer and segment lengths of one core.
struct Stream {
    buf: Vec<u64>,
    segs: Vec<u64>,
}

impl Stream {
    fn new(rng: &mut Rng, segs: usize, lo: u64, hi: u64) -> Self {
        let buf = (0..PRIVATE_BYTES / 8).map(|_| rng.below(1 << 40)).collect();
        let segs = (0..segs).map(|_| rng.gen_range_u64(lo, hi)).collect();
        Stream { buf, segs }
    }

    /// Host model of the guest's segment sums, with wrap-around.
    fn sums(&self) -> Vec<u64> {
        let mut off = 0usize;
        self.segs
            .iter()
            .map(|&len| {
                let mut s = 0u64;
                for _ in 0..len {
                    s = s.wrapping_add(self.buf[off]);
                    off = (off + 1) % self.buf.len();
                }
                s
            })
            .collect()
    }
}

/// Emits the stream prologue: `s1` = buffer, `s0` = segment lengths,
/// `s7` = offset, `s8` = wrap mask.
fn stream_prologue(a: &mut Asm, st: &Stream) {
    let buf = a.data_u64("buf", &st.buf);
    let segs = a.data_u64("segs", &st.segs);
    a.la(Gpr::S1, buf);
    a.la(Gpr::S0, segs);
    a.li(Gpr::S7, 0);
    a.li(Gpr::S8, (PRIVATE_BYTES - 8) as i64);
}

/// Emits one segment: loads the next length and sums that many
/// elements into `t1` (cleared first).
fn stream_segment(a: &mut Asm) {
    a.ld(Gpr::T0, Gpr::S0, 0);
    a.addi(Gpr::S0, Gpr::S0, 8);
    a.li(Gpr::T1, 0);
    let inner = a.here();
    a.add(Gpr::T4, Gpr::S1, Gpr::S7);
    a.ld(Gpr::T2, Gpr::T4, 0);
    a.add(Gpr::T1, Gpr::T1, Gpr::T2);
    a.addi(Gpr::S7, Gpr::S7, 8);
    a.and_(Gpr::S7, Gpr::S7, Gpr::S8);
    a.addi(Gpr::T0, Gpr::T0, -1);
    a.bnez(Gpr::T0, inner);
}

/// Core 0: sums a segment per item, publishes it, fences, raises the
/// flag and waits for the consumer's ack. Exit code: the item count.
fn producer(st: &Stream) -> Program {
    let mut a = Asm::new().with_data_base(private_base(0));
    stream_prologue(&mut a, st);
    a.la(Gpr::S4, SHARED);
    a.li(Gpr::S2, st.segs.len() as i64);
    a.li(Gpr::S3, 1);
    let outer = a.here();
    stream_segment(&mut a);
    a.sd(Gpr::T1, Gpr::S4, 0);
    a.fence();
    a.sd(Gpr::S3, Gpr::S4, 8);
    let spin = a.here();
    a.ld(Gpr::T3, Gpr::S4, MB_ACK);
    a.fence();
    a.blt(Gpr::T3, Gpr::S3, spin);
    a.addi(Gpr::S3, Gpr::S3, 1);
    a.addi(Gpr::S2, Gpr::S2, -1);
    a.bnez(Gpr::S2, outer);
    a.li(Gpr::A0, st.segs.len() as i64);
    a.halt();
    a.finish().expect("producer assembles")
}

/// Core 1: waits for each flag, folds the item into `acc = acc*31 + v`,
/// acks it, and sums a private segment. Exit code: `acc + private sum`.
fn consumer(st: &Stream) -> Program {
    let mut a = Asm::new().with_data_base(private_base(1));
    stream_prologue(&mut a, st);
    a.la(Gpr::S4, SHARED);
    a.li(Gpr::S2, st.segs.len() as i64);
    a.li(Gpr::S3, 1);
    a.li(Gpr::S5, 31);
    a.li(Gpr::S6, 0);
    a.li(Gpr::A1, 0);
    let outer = a.here();
    let spin = a.here();
    a.ld(Gpr::T3, Gpr::S4, 8);
    a.fence();
    a.blt(Gpr::T3, Gpr::S3, spin);
    a.ld(Gpr::T5, Gpr::S4, 0);
    a.mul(Gpr::A1, Gpr::A1, Gpr::S5);
    a.add(Gpr::A1, Gpr::A1, Gpr::T5);
    a.sd(Gpr::S3, Gpr::S4, MB_ACK);
    stream_segment(&mut a);
    a.add(Gpr::S6, Gpr::S6, Gpr::T1);
    a.addi(Gpr::S3, Gpr::S3, 1);
    a.addi(Gpr::S2, Gpr::S2, -1);
    a.bnez(Gpr::S2, outer);
    a.add(Gpr::A0, Gpr::A1, Gpr::S6);
    a.halt();
    a.finish().expect("consumer assembles")
}

/// Cores 2 and 3: a private segment, then one `amoadd.d` on the shared
/// counter, per round; at the end each waits (reading the counter
/// atomically) until both cores' increments have landed. Exit code: the
/// private sum.
fn contender(core: u64, st: &Stream, total: u64) -> Program {
    let mut a = Asm::new().with_data_base(private_base(core));
    stream_prologue(&mut a, st);
    a.la(Gpr::S4, SHARED + COUNTER as u64);
    a.li(Gpr::S2, st.segs.len() as i64);
    a.li(Gpr::S5, 1);
    a.li(Gpr::S6, 0);
    let outer = a.here();
    stream_segment(&mut a);
    a.add(Gpr::S6, Gpr::S6, Gpr::T1);
    a.amoadd_d(Gpr::T3, Gpr::S5, Gpr::S4);
    a.addi(Gpr::S2, Gpr::S2, -1);
    a.bnez(Gpr::S2, outer);
    a.li(Gpr::S9, total as i64);
    let wait = a.here();
    a.amoadd_d(Gpr::T3, Gpr::ZERO, Gpr::S4);
    a.bne(Gpr::T3, Gpr::S9, wait);
    a.mv(Gpr::A0, Gpr::S6);
    a.halt();
    a.finish().expect("contender assembles")
}

/// The four programs and their expected exit codes.
pub fn programs(seed: u64) -> (Vec<Program>, Vec<u64>) {
    let root = Rng::new(seed ^ 0x636c_7573_7465_7234);
    let prod = Stream::new(&mut root.fork(0), ITEMS, 1024, 3072);
    let cons = Stream::new(&mut root.fork(1), ITEMS, 1024, 3072);
    let c2 = Stream::new(&mut root.fork(2), ROUNDS, 256, 768);
    let c3 = Stream::new(&mut root.fork(3), ROUNDS, 256, 768);
    let items = prod.sums();
    let acc = items
        .iter()
        .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v));
    let total = 2 * ROUNDS as u64;
    let sum = |s: &Stream| s.sums().iter().fold(0u64, |a, &v| a.wrapping_add(v));
    let expected = vec![
        ITEMS as u64,
        acc.wrapping_add(sum(&cons)),
        sum(&c2),
        sum(&c3),
    ];
    let programs = vec![
        producer(&prod),
        consumer(&cons),
        contender(2, &c2, total),
        contender(3, &c3, total),
    ];
    (programs, expected)
}

fn build(programs: &[Program]) -> ClusterSim {
    let mem = MemConfig {
        cores: programs.len(),
        ..MemConfig::default()
    };
    ClusterSim::new(programs, &CoreConfig::xt910(), mem, MAX_INSTS)
}

fn check_report(r: &xt_soc::ClusterReport, expected: &[u64]) -> Result<(), String> {
    for (i, (&got, &want)) in r.exit_codes.iter().zip(expected).enumerate() {
        check_exit(got, want).map_err(|e| format!("core {i}: {e}"))?;
    }
    Ok(())
}

fn reference(inputs: &Inputs) -> Reference {
    let mut sim = build(&inputs.programs);
    let mut frames = Vec::new();
    let mut t1_ns = 0;
    loop {
        let t = Instant::now();
        let finished = sim.step_epochs(CHECKPOINT_EPOCHS, 1);
        t1_ns += t.elapsed().as_nanos() as u64;
        if finished {
            break;
        }
        frames.push(Fnv::of(&sim.save()));
    }
    let digest_t1 = cluster_digest(&sim.into_report());
    let sim = build(&inputs.programs);
    let t = Instant::now();
    let report_t2 = sim.run_threads(THREADS);
    let t2_ns = t.elapsed().as_nanos() as u64;
    Reference {
        frames,
        digest_t1,
        digest_t2: cluster_digest(&report_t2),
        t1_ns,
        t2_ns,
        report_t2,
    }
}

/// What one segment did.
struct Segment {
    digest: u64,
    finished: Option<xt_soc::ClusterReport>,
}

/// Steps `sim` by one checkpoint interval. Untraced: `step_epochs`
/// calls of [`WINDOW_EPOCHS`] each. Traced: one call per epoch, each
/// timed.
fn step_segment(
    sim: &mut ClusterSim,
    clock: &mut Clock,
    tr: Option<(&mut Tracer, SpanId)>,
) -> bool {
    let Some((tr, parent)) = tr else {
        for _ in 0..CHECKPOINT_EPOCHS / WINDOW_EPOCHS {
            if clock.time(|| sim.step_epochs(WINDOW_EPOCHS, THREADS)) {
                return true;
            }
        }
        return false;
    };
    let agg = tr
        .spans
        .aggregate("cluster.step_epochs", Layer::Cluster, parent);
    let mut finished = false;
    for _ in 0..CHECKPOINT_EPOCHS {
        let t0 = Instant::now();
        finished = clock.time(|| sim.step_epochs(1, THREADS));
        tr.spans.add(agg, t0, Instant::now());
        tr.acc.add("cluster.stepped_epochs", 1.0);
        if finished {
            break;
        }
    }
    tr.acc.add("cluster.step_ns", tr.spans.busy_ns(agg) as f64);
    finished
}

/// One segment: step, then either finish (check exit codes and digests)
/// or save, restore into a fresh sim, and check the frame against the
/// uninterrupted reference.
fn segment(
    k: usize,
    sim: &mut Option<ClusterSim>,
    inputs: &Inputs,
    r: &Reference,
    clock: &mut Clock,
    mut tr: Option<&mut Tracer>,
) -> Result<Segment, String> {
    if r.digest_t1 != r.digest_t2 {
        return Err(format!(
            "uninterrupted runs differ between 1 and {THREADS} threads ({:#x} vs {:#x})",
            r.digest_t1, r.digest_t2
        ));
    }
    let mut cur = sim
        .take()
        .ok_or("no sim to continue (an earlier segment failed)")?;
    // the segment's span; an untraced run opens none and never reads it
    let span = tr.as_deref_mut().map_or(0, |t| {
        let root = t.root;
        t.spans
            .open(format!("segment {k}"), Layer::Bench, Some(root))
    });
    let finished = step_segment(&mut cur, clock, tr.as_deref_mut().map(|t| (t, span)));
    let result = if finished {
        let epochs = cur.epochs();
        let (report, _) = timed(
            clock,
            tr.as_deref_mut(),
            span,
            "cluster.report",
            Layer::Cluster,
            || cur.into_report(),
        );
        if let Some(t) = tr.as_deref_mut() {
            t.acc.add("cluster.epochs", epochs as f64);
            t.acc.add("core.insts", report.total_instructions() as f64);
            t.acc.add(
                "core.sim_cycles",
                report.cores.iter().map(|c| c.cycles).sum::<u64>() as f64,
            );
            t.note_mem(&report.mem);
        }
        let digest = cluster_digest(&report);
        check_report(&report, &inputs.expected).and_then(|_| {
            if digest == r.digest_t1 {
                Ok(Segment {
                    digest,
                    finished: Some(report),
                })
            } else {
                Err(format!(
                    "resumed digest {digest:#x} differs from the uninterrupted run's {:#x}",
                    r.digest_t1
                ))
            }
        })
    } else {
        let (frame, _) = timed(
            clock,
            tr.as_deref_mut(),
            span,
            "snapshot.save",
            Layer::Snapshot,
            || cur.save(),
        );
        drop(cur);
        // a restore needs a fresh sim to restore into: `cluster.new_ns`
        // counts towards the restore rate
        let (mut fresh, _) = timed(
            clock,
            tr.as_deref_mut(),
            span,
            "cluster.new",
            Layer::Cluster,
            || build(&inputs.programs),
        );
        let (restored, _) = timed(
            clock,
            tr.as_deref_mut(),
            span,
            "snapshot.restore",
            Layer::Snapshot,
            || fresh.restore(&frame),
        );
        if let Some(t) = tr.as_deref_mut() {
            t.acc.add("snapshot.frames", 1.0);
            t.acc.add("snapshot.bytes", frame.len() as f64);
        }
        let (digest, _) = timed(
            &mut Clock::raw(),
            tr.as_deref_mut(),
            span,
            "check.frame",
            Layer::Check,
            || Fnv::of(&frame),
        );
        restored
            .map_err(|e| format!("restore failed: {e}"))
            .and_then(|_| {
                *sim = Some(fresh);
                match r.frames.get(k) {
                    Some(&want) if want == digest => Ok(Segment {
                        digest,
                        finished: None,
                    }),
                    _ => Err(format!(
                        "frame after segment {k} differs from the uninterrupted run's"
                    )),
                }
            })
    };
    if let Some(t) = tr {
        t.spans.close(span);
    }
    result
}

impl Workload for Cluster4 {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        let (programs, expected) = programs(seed);
        Inputs {
            programs,
            expected,
            reference: OnceCell::new(),
        }
    }

    fn load_all(inputs: &Inputs) {
        std::hint::black_box(build(&inputs.programs));
    }

    fn prepare(inputs: &Inputs) {
        inputs.reference.get_or_init(|| reference(inputs));
    }

    fn pass(
        inputs: &Inputs,
        ledger: &mut Ledger,
        clock: &mut Clock,
        mut tr: Option<&mut Tracer>,
        untraced: Option<&Pass>,
    ) -> Pass {
        let r = inputs.reference.get_or_init(|| reference(inputs));
        let mut pass = Pass::default();
        let mut sim = Some(build(&inputs.programs));
        for k in 0.. {
            let name = format!("segment {k}");
            let t = tr.as_deref_mut();
            let seg = ledger.op(&name, || segment(k, &mut sim, inputs, r, clock, t));
            let Some(seg) = seg else { break };
            if let (Some(u), Some(t)) = (untraced, tr.as_deref_mut()) {
                if u.digests.get(k) != Some(&seg.digest) {
                    ledger.fail(&name, "traced segment differs from the untraced one");
                }
                t.acc.add("cluster.segments", 1.0);
            }
            pass.digests.push(seg.digest);
            if let Some(report) = seg.finished {
                pass.insts = report.total_instructions();
                break;
            }
        }
        if let Some(t) = tr {
            // from the uninterrupted reference runs, which only happen once
            t.acc.set("cluster.t1_ns", r.t1_ns as f64);
            t.acc.set("cluster.t2_ns", r.t2_ns as f64);
            t.acc
                .set("cluster.serial_ns", r.report_t2.engine.serial_ns as f64);
            t.acc
                .set("cluster.parallel_ns", r.report_t2.engine.parallel_ns as f64);
            t.acc
                .set("cluster.snoops_sent", r.report_t2.mem.snoops_sent as f64);
            t.acc.set(
                "cluster.probe_candidates",
                r.report_t2.mem.probe_candidates as f64,
            );
        }
        pass
    }

    fn model_err_pct(_inputs: &Inputs, _first: &Pass, ledger: &mut Ledger) -> f64 {
        fig17_err_by_run(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(seed: u64) -> Vec<u8> {
        let (progs, want) = programs(seed);
        let mut b = Vec::new();
        for p in &progs {
            b.extend(&p.text);
            b.extend(&p.data);
        }
        for w in want {
            b.extend(w.to_le_bytes());
        }
        b
    }

    #[test]
    fn the_seed_alone_decides_the_generated_inputs() {
        assert!(bytes(5) == bytes(5));
        assert!(bytes(5) != bytes(6));
    }
}
