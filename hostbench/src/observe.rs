//! `observe`: one XT-910 session over a bounded window of a seeded
//! ALU / pointer-chase / branchy phased program, with the pipeline
//! tracer, a `MemTracer` and a `Sampler` at xt-stat's interval attached.
//! It ends by rendering Konata, the pipeline chrome JSON and the memory
//! chrome JSON, and running `MemTracer::reconcile`. One operation per
//! pass (window + render + reconcile).
//!
//! Why: the only workload that runs the `perf` and `trace` layers.
//! Checkpointing is left out because session frames serialise the
//! tracer buffer.

use crate::host::Clock;
use crate::kernels::fig17_err_by_run;
use crate::ledger::{check_exit, run_digest, Ledger};
use crate::single::{replay_under, step_traced, WINDOW_INSTS};
use crate::spans::Layer;
use crate::{timed, Pass, Tracer, Workload};
use std::time::Instant;
use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooCore, RunReport, Session};
use xt_emu::{Emulator, TraceSource};
use xt_isa::reg::Gpr;
use xt_mem::{MemConfig, MemSystem, MemTracer};
use xt_perf::{Sampler, TimeSeries};
use xt_trace::TraceBuffer;
use xt_workloads::Rng;

/// Instruction window: the program halts well inside it.
const WINDOW: u64 = 1_000_000;
/// Phase lengths. The seed picks the chase order and the branch
/// pattern, not how long each phase runs, so every seed does the same
/// amount of work.
const ALU_ITERS: u64 = 5_000;
const HOPS: u64 = 4_000;
const BRANCHY_ITERS: u64 = 4_000;
/// Nodes of the chase, one per 4 KiB page, so every hop misses.
const CHASE_NODES: u64 = 1024;
const NODE_STRIDE: u64 = 4096;

pub struct Observe;

pub struct Inputs {
    pub program: Program,
    pub expected: u64,
}

/// The phased program and its expected exit code:
/// `ALU_ITERS + final chase address + taken-branch count`.
pub fn phased(seed: u64) -> (Program, u64) {
    let mut rng = Rng::new(seed ^ 0x6f62_7365_7276_6500);
    let lcg_seed = rng.below(1 << 31);
    let mut order: Vec<u64> = (1..CHASE_NODES).collect();
    rng.shuffle(&mut order);
    order.insert(0, 0);

    let base = xt_asm::DEFAULT_DATA_BASE;
    let words = (NODE_STRIDE / 8) as usize;
    let mut chain = vec![0u64; CHASE_NODES as usize * words];
    for (k, &node) in order.iter().enumerate() {
        chain[node as usize * words] = base + order[(k + 1) % order.len()] * NODE_STRIDE;
    }
    let mut at = base;
    for _ in 0..HOPS {
        at = chain[((at - base) / 8) as usize];
    }
    let (mul, add) = (1_103_515_245u64, 12_345u64);
    let mut s = lcg_seed;
    let mut taken = 0u64;
    for _ in 0..BRANCHY_ITERS {
        s = s.wrapping_mul(mul).wrapping_add(add);
        taken += (s >> 17) & 1;
    }
    let expected = ALU_ITERS.wrapping_add(at).wrapping_add(taken);

    let mut a = Asm::new();
    let chain_at = a.data_u64("chain", &chain);
    assert_eq!(chain_at, base, "the chain is the first data symbol");
    // phase 1: independent ALU work
    a.li(Gpr::A3, ALU_ITERS as i64);
    a.li(Gpr::A1, 0);
    let p1 = a.here();
    a.addi(Gpr::A1, Gpr::A1, 1);
    a.addi(Gpr::A2, Gpr::A2, 1);
    a.addi(Gpr::A4, Gpr::A4, 1);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, p1);
    // phase 2: pointer chase, a page per hop
    a.la(Gpr::A5, base);
    a.li(Gpr::A3, HOPS as i64);
    let p2 = a.here();
    a.ld(Gpr::A5, Gpr::A5, 0);
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, p2);
    // phase 3: data-dependent branches on an LCG
    a.li(Gpr::S0, lcg_seed as i64);
    a.li(Gpr::S1, mul as i64);
    a.li(Gpr::S2, add as i64);
    a.li(Gpr::A6, 0);
    a.li(Gpr::A3, BRANCHY_ITERS as i64);
    let p3 = a.here();
    a.mul(Gpr::S0, Gpr::S0, Gpr::S1);
    a.add(Gpr::S0, Gpr::S0, Gpr::S2);
    a.srli(Gpr::T0, Gpr::S0, 17);
    a.andi(Gpr::T0, Gpr::T0, 1);
    let skip = a.new_label();
    a.beqz(Gpr::T0, skip);
    a.addi(Gpr::A6, Gpr::A6, 1);
    a.bind(skip).expect("label binds");
    a.addi(Gpr::A3, Gpr::A3, -1);
    a.bnez(Gpr::A3, p3);
    a.add(Gpr::A0, Gpr::A1, Gpr::A5);
    a.add(Gpr::A0, Gpr::A0, Gpr::A6);
    a.halt();
    (a.finish().expect("phased program assembles"), expected)
}

fn mem_cfg() -> MemConfig {
    CoreConfig::xt910().mem
}

/// The session's parts with every observer attached.
fn load(inputs: &Inputs) -> (TraceSource, OooCore, MemSystem, Sampler) {
    let mut emu = Emulator::new();
    emu.load(&inputs.program);
    let mut core = OooCore::new(CoreConfig::xt910(), 0);
    core.attach_tracer();
    let mut mem = MemSystem::new(mem_cfg());
    mem.start_tracing();
    let sampler = Sampler::new(0, xt_perf::stat::sampling_interval(false));
    (TraceSource::new(emu, WINDOW), core, mem, sampler)
}

/// Checks and sizes of one rendered window.
struct Rendered {
    records: usize,
    konata_bytes: usize,
    events: usize,
}

/// Renders the three traces and reconciles the memory events, timing
/// each step into a span when traced.
fn render(
    buf: &TraceBuffer,
    mt: &MemTracer,
    report: &RunReport,
    clock: &mut Clock,
    mut tr: Option<&mut Tracer>,
    parent: usize,
) -> Result<Rendered, String> {
    let (konata_bytes, _) = timed(
        clock,
        tr.as_deref_mut(),
        parent,
        "trace.konata",
        Layer::Trace,
        || buf.to_konata().len(),
    );
    timed(
        clock,
        tr.as_deref_mut(),
        parent,
        "trace.chrome",
        Layer::Trace,
        || buf.to_chrome_json().len(),
    );
    timed(
        clock,
        tr.as_deref_mut(),
        parent,
        "memtrace.chrome",
        Layer::MemTrace,
        || mt.to_chrome_json(1).len(),
    );
    let (reconciled, _) = timed(
        clock,
        tr,
        parent,
        "memtrace.reconcile",
        Layer::MemTrace,
        || mt.reconcile(&report.mem),
    );
    reconciled.map_err(|e| format!("MemTracer::reconcile: {e}"))?;
    Ok(Rendered {
        records: buf.records().len(),
        konata_bytes,
        events: mt.len(),
    })
}

fn check_series(series: &TimeSeries, report: &RunReport) -> Result<(), String> {
    if series.total_perf().instructions == report.perf.instructions {
        Ok(())
    } else {
        Err("sampler intervals do not add up to the run's instructions".into())
    }
}

/// One untraced window through `Session`: returns the digest and the
/// instructions retired. Stepping, sampling and each render are clock
/// windows.
fn window(inputs: &Inputs, clock: &mut Clock) -> Result<(u64, u64), String> {
    let (trace, core, mem, mut sampler) = load(inputs);
    let mut s = Session::from_parts(trace, core, mem);
    let mut step_window = || {
        let mut stepped = 0;
        while stepped < WINDOW_INSTS && s.step() {
            stepped += 1;
            if sampler.due(s.cycles()) {
                sampler.observe(s.cycles(), s.core().perf(), &s.mem().stats());
            }
        }
        stepped
    };
    while clock.time(&mut step_window) == WINDOW_INSTS {}
    let report = s.finish_report();
    let series = clock.time(|| sampler.finish(report.perf.cycles, &report.perf, &report.mem));
    let buf = s.take_tracer().ok_or("pipeline tracer missing")?;
    let mt = s.mem().tracer().ok_or("MemTracer missing")?;
    render(&buf, mt, &report, clock, None, 0)?;
    check_exit(report.exit_code, inputs.expected)?;
    check_series(&series, &report)?;
    Ok((run_digest(&report), report.perf.instructions))
}

/// The traced window: the parts stepped by hand, every call timed.
fn window_traced(
    inputs: &Inputs,
    tr: &mut Tracer,
    untraced: Option<u64>,
) -> Result<(u64, u64), String> {
    let (trace, core, mem, mut sampler) = load(inputs);
    let span = tr.spans.open("observe", Layer::Bench, Some(tr.root));
    let perf = tr.spans.aggregate("perf.sample", Layer::Perf, span);
    let (t, mut core, mem) = step_traced(trace, core, mem, tr, span, |core: &OooCore, mem, tr| {
        if sampler.due(core.cycles()) {
            let t0 = Instant::now();
            sampler.observe(core.cycles(), core.perf(), &mem.stats());
            tr.spans.add(perf, t0, Instant::now());
            tr.acc.add("perf.samples", 1.0);
        }
    });
    tr.acc.add("perf.ns", tr.spans.busy_ns(perf) as f64);
    tr.acc
        .add("core.ooo.step_ns", tr.spans.busy_ns(t.step_span) as f64);
    tr.acc
        .add("core.ooo.insts", t.report.perf.instructions as f64);
    let (series, _) = timed(
        &mut Clock::raw(),
        Some(&mut *tr),
        span,
        "perf.finish",
        Layer::Perf,
        || sampler.finish(t.report.perf.cycles, &t.report.perf, &t.report.mem),
    );
    let buf = core.take_tracer().ok_or("pipeline tracer missing")?;
    let mt = mem.tracer().ok_or("MemTracer missing")?;
    let rendered = render(&buf, mt, &t.report, &mut Clock::raw(), Some(tr), span);
    drop(buf);
    let replayed = replay_under(
        tr,
        span,
        t.step_span,
        mem_cfg(),
        &t.log,
        &t.report.mem,
        "ooo",
    );
    tr.spans.close(span);
    tr.note_run(&t.report, &t.trace);
    let r = rendered?;
    tr.acc.add("trace.records", r.records as f64);
    tr.acc.add("trace.konata_bytes", r.konata_bytes as f64);
    tr.acc.add("memtrace.events", r.events as f64);
    replayed?;
    check_exit(t.report.exit_code, inputs.expected)?;
    check_series(&series, &t.report)?;
    let digest = run_digest(&t.report);
    match untraced {
        Some(u) if u != digest => Err(format!(
            "traced digest {digest:#x} differs from untraced {u:#x}"
        )),
        _ => Ok((digest, t.report.perf.instructions)),
    }
}

impl Workload for Observe {
    type Inputs = Inputs;

    fn generate(seed: u64) -> Inputs {
        let (program, expected) = phased(seed);
        Inputs { program, expected }
    }

    fn load_all(inputs: &Inputs) {
        std::hint::black_box(load(inputs));
    }

    fn pass(
        inputs: &Inputs,
        ledger: &mut Ledger,
        clock: &mut Clock,
        tr: Option<&mut Tracer>,
        untraced: Option<&Pass>,
    ) -> Pass {
        let name = "window+render+reconcile";
        let out = match tr {
            None => ledger.op(name, || window(inputs, clock)),
            Some(t) => {
                let reference = untraced.and_then(|u| u.digests.first().copied());
                ledger.op(name, || window_traced(inputs, t, reference))
            }
        };
        let (digest, insts) = out.unwrap_or((0, 0));
        Pass {
            insts,
            digests: vec![digest],
            cycles: Vec::new(),
        }
    }

    fn model_err_pct(_inputs: &Inputs, _first: &Pass, ledger: &mut Ledger) -> f64 {
        fig17_err_by_run(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(seed: u64) -> Vec<u8> {
        let (p, want) = phased(seed);
        let mut b = p.text.clone();
        b.extend(&p.data);
        b.extend(want.to_le_bytes());
        b
    }

    #[test]
    fn the_seed_alone_decides_the_generated_inputs() {
        assert!(bytes(9) == bytes(9));
        assert!(bytes(9) != bytes(10));
    }

    #[test]
    fn the_phased_program_meets_its_host_expectation() {
        let inputs = Observe::generate(4);
        let mut ledger = Ledger::default();
        Observe::pass(&inputs, &mut ledger, &mut Clock::raw(), None, None);
        assert_eq!(
            (ledger.attempted, ledger.failed),
            (1, 0),
            "{:?}",
            ledger.failures
        );
    }
}
