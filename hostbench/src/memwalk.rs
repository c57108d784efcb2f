//! `memwalk`: a single-core XT-910 run in two parts. First a seeded
//! random-permutation pointer chase over 4 MiB, twice the default 2 MiB
//! L2, one 64-byte line per hop; then STREAM at Fig. 21's condition
//! (256 KiB L2, 200-cycle DRAM) with prefetch `off` and `all_large`.
//! Three operations per pass: the chase and each STREAM run.
//!
//! Why: MemSystem (caches, prefetcher, miss classifier) dominates here
//! and is minor in `kernels`.

use crate::host::Clock;
use crate::kernels::run_jobs;
use crate::ledger::Ledger;
use crate::single::{self, Job, Machine};
use crate::{Pass, Tracer, Workload};
use xt_asm::Asm;
use xt_isa::reg::Gpr;
use xt_mem::{MemConfig, PrefetchConfig};
use xt_workloads::{stream, Rng};

/// Fig. 21 scenario (d)'s published STREAM prefetch speedup.
pub const FIG21_D_SPEEDUP: f64 = 5.4;
/// Bytes the chase walks over.
pub const CHASE_BYTES: u64 = 4 << 20;
/// Bytes per hop (one cache line).
pub const LINE: u64 = 64;
/// Times the chase goes round its cycle: the first lap misses
/// compulsorily, the second finds the lines evicted from the L2.
pub const LAPS: u64 = 2;

pub struct Memwalk;

/// The chase's data image and expected result: a single cycle through
/// every line in seeded random order. Returns the `u64` image and the
/// sum of the addresses the guest visits.
pub fn chase_image(seed: u64, base: u64) -> (Vec<u64>, u64) {
    let lines = CHASE_BYTES / LINE;
    let mut order: Vec<u64> = (1..lines).collect();
    Rng::new(seed ^ 0x6d65_6d77_616c_6b00).shuffle(&mut order);
    order.insert(0, 0);
    let words_per_line = (LINE / 8) as usize;
    let mut image = vec![0u64; (CHASE_BYTES / 8) as usize];
    for (k, &line) in order.iter().enumerate() {
        let next = order[(k + 1) % order.len()];
        image[line as usize * words_per_line] = base + next * LINE;
    }
    // the guest sums the address it lands on after every hop
    let mut sum = 0u64;
    let mut at = base;
    for _ in 0..lines * LAPS {
        at = image[((at - base) / 8) as usize];
        sum = sum.wrapping_add(at);
    }
    (image, sum)
}

/// The chase program and its expected exit code.
pub fn chase(seed: u64) -> (xt_asm::Program, u64) {
    let mut a = Asm::new();
    let (image, sum) = chase_image(seed, xt_asm::DEFAULT_DATA_BASE);
    let base = a.data_u64("chain", &image);
    assert_eq!(
        base,
        xt_asm::DEFAULT_DATA_BASE,
        "the chain is the first data symbol"
    );
    a.la(Gpr::A1, base);
    a.li(Gpr::A3, (CHASE_BYTES / LINE * LAPS) as i64);
    a.li(Gpr::A5, 0);
    let top = a.here();
    a.ld(Gpr::A1, Gpr::A1, 0);
    a.add(Gpr::A5, Gpr::A5, Gpr::A1);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    (a.finish().expect("chase assembles"), sum)
}

/// Fig. 21's memory condition with the given prefetch scenario.
fn fig21_mem(prefetch: PrefetchConfig) -> MemConfig {
    MemConfig {
        dram_latency: 200,
        l2_kib: 256,
        l2_ways: 8,
        prefetch,
        ..MemConfig::default()
    }
}

impl Workload for Memwalk {
    type Inputs = Vec<Job>;

    fn generate(seed: u64) -> Vec<Job> {
        let (program, expected) = chase(seed);
        let mut jobs = vec![Job::new(
            "chase@xt910".into(),
            program,
            Machine::Xt910,
            expected,
        )];
        let k = stream::stream(stream::STREAM_ELEMS);
        let expected = k.expected.expect("STREAM is self-checking");
        for (label, pf) in [
            ("off", PrefetchConfig::off()),
            ("all_large", PrefetchConfig::all_large()),
        ] {
            let mut j = Job::new(
                format!("stream[{label}]@xt910"),
                k.program.clone(),
                Machine::Xt910,
                expected,
            );
            j.mem = fig21_mem(pf);
            jobs.push(j);
        }
        jobs
    }

    fn load_all(jobs: &Vec<Job>) {
        single::load_all(jobs);
    }

    fn pass(
        jobs: &Vec<Job>,
        ledger: &mut Ledger,
        clock: &mut Clock,
        tr: Option<&mut Tracer>,
        untraced: Option<&Pass>,
    ) -> Pass {
        run_jobs(jobs, ledger, clock, tr, untraced)
    }

    fn model_err_pct(_jobs: &Vec<Job>, first: &Pass, _ledger: &mut Ledger) -> f64 {
        let speedup = first.cycles[1] as f64 / first.cycles[2] as f64;
        (speedup - FIG21_D_SPEEDUP).abs() / FIG21_D_SPEEDUP * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{load, step_traced, CoreBox};
    use crate::spans::{Layer, Spans};
    use crate::{Acc, Tracer};
    use xt_mem::MemOp;

    fn image_bytes(seed: u64) -> Vec<u8> {
        let (p, want) = chase(seed);
        let mut b = p.text.clone();
        b.extend(&p.data);
        b.extend(want.to_le_bytes());
        b
    }

    #[test]
    fn the_seed_alone_decides_the_generated_inputs() {
        assert!(image_bytes(1) == image_bytes(1), "same seed, same bytes");
        assert!(
            image_bytes(1) != image_bytes(2),
            "another seed, other bytes"
        );
    }

    #[test]
    fn the_chase_is_one_cycle_through_every_line() {
        let (image, _) = chase_image(3, 0);
        let mut seen = vec![false; (CHASE_BYTES / LINE) as usize];
        let mut at = 0u64;
        for _ in 0..seen.len() {
            assert!(
                !seen[(at / LINE) as usize],
                "line visited twice before the cycle closed"
            );
            seen[(at / LINE) as usize] = true;
            at = image[(at / 8) as usize];
        }
        assert_eq!(at, 0);
    }

    /// One perturbed MemOp in a recorded log must fail the replay check,
    /// and count as a failed operation.
    #[test]
    fn a_perturbed_replayed_memop_is_a_failed_operation() {
        let mut a = Asm::new();
        let buf = a.data_zeros("buf", 64 * 1024);
        a.la(Gpr::A1, buf);
        a.li(Gpr::A2, 512);
        let top = a.here();
        a.ld(Gpr::A4, Gpr::A1, 0);
        a.addi(Gpr::A1, Gpr::A1, 128);
        a.addi(Gpr::A2, Gpr::A2, -1);
        a.bnez(Gpr::A2, top);
        a.li(Gpr::A0, 7);
        a.halt();
        let job = Job::new("probe".into(), a.finish().unwrap(), Machine::Xt910, 7);
        let parts = load(&job);
        let CoreBox::Ooo(core) = parts.core else {
            unreachable!()
        };
        let mut tr = Tracer {
            spans: Spans::new(),
            root: 0,
            acc: Acc::default(),
        };
        tr.root = tr.spans.open("pass", Layer::Bench, None);
        let (t, _, _) = step_traced(parts.trace, core, parts.mem, &mut tr, 0, |_, _, _| {});
        let mut ledger = Ledger::default();
        ledger.op("intact", || {
            single::check_replay(job.mem, &t.log, &t.report.mem)
        });
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));
        let mut log = t.log.clone();
        let i = log
            .iter()
            .position(|op| matches!(op, MemOp::Load { .. }))
            .unwrap();
        if let MemOp::Load { pa, va, .. } = &mut log[i] {
            *pa += 1 << 20;
            *va += 1 << 20;
        }
        ledger.op("perturbed", || {
            single::check_replay(job.mem, &log, &t.report.mem)
        });
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
    }
}
