//! Single-core jobs: one guest program on one machine, run either
//! through `xt_core::Session` (untraced) or by stepping its three parts
//! directly so each call can be timed (traced).

use crate::host::Clock;
use crate::ledger::{check_exit, run_digest};
use crate::spans::{Layer, SpanId};
use crate::{timed, Tracer};
use std::time::Instant;
use xt_asm::Program;
use xt_core::session::CoreModel;
use xt_core::{CoreConfig, InOrderCore, OooCore, RunReport, Session};
use xt_emu::{Emulator, TraceEvent, TraceSource};
use xt_mem::{MemConfig, MemOp, MemStats, MemSystem};

/// Instruction budget of every single-core job (the paper harness's).
pub const MAX_INSTS: u64 = 500_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// The XT-910 out-of-order core.
    Xt910,
    /// The U74-like dual-issue in-order baseline of Fig. 17.
    U74,
}

impl Machine {
    pub fn config(self) -> CoreConfig {
        match self {
            Machine::Xt910 => CoreConfig::xt910(),
            Machine::U74 => CoreConfig::u74_like(),
        }
    }
}

/// One guest program on one machine, with the exit code the host
/// expects.
#[derive(Clone, Debug)]
pub struct Job {
    pub name: String,
    pub program: Program,
    pub machine: Machine,
    pub mem: MemConfig,
    pub expected: u64,
}

impl Job {
    /// A job on `machine` with that machine's own memory configuration.
    pub fn new(name: String, program: Program, machine: Machine, expected: u64) -> Self {
        Job {
            name,
            program,
            mem: machine.config().mem,
            machine,
            expected,
        }
    }
}

// one per job, moved into a session straight away: boxing would buy nothing
#[allow(clippy::large_enum_variant)]
pub enum CoreBox {
    Ooo(OooCore),
    InOrder(InOrderCore),
}

/// The three pieces a single-core run owns, built but not yet stepped.
pub struct Parts {
    pub trace: TraceSource,
    pub core: CoreBox,
    pub mem: MemSystem,
}

/// `Emulator::load` plus the core and memory system: what
/// `OooSession::ooo_with_mem` / `InOrderSession::inorder_with_mem` build.
pub fn load(job: &Job) -> Parts {
    let cfg = job.machine.config();
    let mut emu = Emulator::new();
    emu.load(&job.program);
    Parts {
        trace: TraceSource::new(emu, MAX_INSTS),
        core: match job.machine {
            Machine::Xt910 => CoreBox::Ooo(OooCore::new(cfg, 0)),
            Machine::U74 => CoreBox::InOrder(InOrderCore::new(cfg, 0)),
        },
        mem: MemSystem::new(job.mem),
    }
}

/// Builds every job's parts once and drops them (the set-up cost of a
/// pass of single-core jobs).
pub fn load_all(jobs: &[Job]) {
    for j in jobs {
        std::hint::black_box(load(j));
    }
}

/// Instructions per clock window of an untraced run: short enough for
/// the host-speed probe to track the machine, long enough that the window
/// boundaries cost nothing measurable.
pub const WINDOW_INSTS: u64 = 1 << 16;

/// Runs a session to its end in windows of [`WINDOW_INSTS`], which
/// steps exactly as `Session::run_to_end` does.
pub fn run_session<C: CoreModel>(mut s: Session<C>, clock: &mut Clock) -> RunReport {
    while clock.time(|| s.run_insts(WINDOW_INSTS)) == WINDOW_INSTS {}
    s.finish_report()
}

/// Runs a job to its end through `Session` (the untraced path).
pub fn run(parts: Parts, clock: &mut Clock) -> RunReport {
    match parts.core {
        CoreBox::Ooo(c) => run_session(Session::from_parts(parts.trace, c, parts.mem), clock),
        CoreBox::InOrder(c) => run_session(Session::from_parts(parts.trace, c, parts.mem), clock),
    }
}

/// What a traced job leaves behind besides its report.
pub struct Traced {
    pub report: RunReport,
    /// Aggregate span of every `step_inst` call.
    pub step_span: SpanId,
    /// Every MemSystem call the run made, in order.
    pub log: Vec<MemOp>,
    pub trace: TraceSource,
}

/// Steps the parts in `Session::step`'s order (`try_next`, then
/// `step_inst`), timing each call into aggregate spans under `parent`.
/// `after_step` runs after every instruction (the observe workload's
/// sampler hangs off it).
pub fn step_traced<C: CoreModel>(
    mut trace: TraceSource,
    mut core: C,
    mut mem: MemSystem,
    tr: &mut Tracer,
    parent: SpanId,
    mut after_step: impl FnMut(&C, &MemSystem, &mut Tracer),
) -> (Traced, C, MemSystem) {
    mem.start_recording();
    let emu = tr.spans.aggregate("emu.try_next", Layer::Emu, parent);
    let step = tr.spans.aggregate("core.step_inst", Layer::Core, parent);
    loop {
        let t0 = Instant::now();
        let ev = trace.try_next();
        let t1 = Instant::now();
        tr.spans.add(emu, t0, t1);
        match ev {
            TraceEvent::Inst(d) => {
                core.step_inst(&d, &mut mem);
                tr.spans.add(step, t1, Instant::now());
                after_step(&core, &mem, tr);
            }
            TraceEvent::Barrier | TraceEvent::Done => break,
        }
    }
    let (report, _) = timed(
        &mut Clock::raw(),
        Some(&mut *tr),
        parent,
        "core.report",
        Layer::Core,
        || core.report(&mem, trace.exit_code),
    );
    tr.acc.add("emu.ns", tr.spans.busy_ns(emu) as f64);
    tr.acc.add("emu.insts", trace.retired() as f64);
    let log = mem.take_log();
    (
        Traced {
            report,
            step_span: step,
            log,
            trace,
        },
        core,
        mem,
    )
}

/// Replays a recorded MemOp log into a fresh MemSystem; fails unless
/// that reproduces `original` exactly.
pub fn check_replay(cfg: MemConfig, log: &[MemOp], original: &MemStats) -> Result<(), String> {
    let mut m = MemSystem::new(cfg);
    for op in log {
        m.apply_op(0, op);
    }
    if m.stats() == *original {
        Ok(())
    } else {
        Err(format!(
            "replaying {} MemOps gave different MemStats",
            log.len()
        ))
    }
}

/// Result of one checked job.
#[derive(Clone, Debug, Default)]
pub struct Done {
    pub insts: u64,
    pub cycles: u64,
    pub digest: u64,
}

fn done(r: &RunReport) -> Done {
    Done {
        insts: r.perf.instructions,
        cycles: r.perf.cycles,
        digest: run_digest(r),
    }
}

/// Runs one job untraced and checks its exit code. Loading happens
/// before the timed window.
pub fn run_checked(job: &Job, clock: &mut Clock) -> Result<Done, String> {
    let r = run(load(job), clock);
    check_exit(r.exit_code, job.expected)?;
    Ok(done(&r))
}

/// Runs one job traced under a new span below `parent`: checks the exit
/// code, that the replayed MemStats equal the original, and, when the
/// untraced digest of the same job is known, that the traced report is
/// the same.
pub fn run_traced_checked(
    job: &Job,
    tr: &mut Tracer,
    parent: SpanId,
    untraced: Option<u64>,
) -> Result<Done, String> {
    let parts = load(job);
    let span = tr.spans.open(job.name.clone(), Layer::Bench, Some(parent));
    let (t, kind) = match parts.core {
        CoreBox::Ooo(c) => {
            let (t, _, _) = step_traced(parts.trace, c, parts.mem, tr, span, |_, _, _| {});
            (t, "ooo")
        }
        CoreBox::InOrder(c) => {
            let (t, _, _) = step_traced(parts.trace, c, parts.mem, tr, span, |_, _, _| {});
            (t, "inorder")
        }
    };
    let step_ns = tr.spans.busy_ns(t.step_span) as f64;
    tr.acc.add(&format!("core.{kind}.step_ns"), step_ns);
    tr.acc.add(
        &format!("core.{kind}.insts"),
        t.report.perf.instructions as f64,
    );
    let replayed = replay_under(tr, span, t.step_span, job.mem, &t.log, &t.report.mem, kind);
    tr.spans.close(span);
    tr.note_run(&t.report, &t.trace);
    replayed?;
    check_exit(t.report.exit_code, job.expected)?;
    let d = done(&t.report);
    match untraced {
        Some(u) if u != d.digest => Err(format!(
            "traced digest {:#x} differs from untraced {u:#x}",
            d.digest
        )),
        _ => Ok(d),
    }
}

/// Times the MemOp replay of a traced job (verification work, charged to
/// `Check`) and carves the same number of nanoseconds out of the job's
/// `step_inst` span as the MemSystem estimate.
pub fn replay_under(
    tr: &mut Tracer,
    parent: SpanId,
    step_span: SpanId,
    cfg: MemConfig,
    log: &[MemOp],
    original: &MemStats,
    core_kind: &str,
) -> Result<(), String> {
    let id = tr.spans.open("mem.replay", Layer::Check, Some(parent));
    let result = check_replay(cfg, log, original);
    tr.spans.close(id);
    let ns = tr.spans.busy_ns(id);
    tr.spans.carve(step_span, Layer::Mem, ns);
    tr.acc.add("mem.ops", log.len() as f64);
    tr.acc.add("mem.replay_ns", ns as f64);
    tr.acc
        .add(&format!("core.{core_kind}.replay_ns"), ns as f64);
    result
}
