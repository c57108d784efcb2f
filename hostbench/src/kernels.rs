//! `kernels`: the paper's self-checking suite, one fresh session per
//! job. CoreMark ×4, EEMBC ×5 and NBench ×7 on both the XT-910 and the
//! U74-like core, plus vecbench ×4 on the XT-910 across the
//! `rv64gc|rv64gcv × base|tuned` grid: 48 jobs per pass.
//!
//! Why: the code stays L1-resident, so the core pipeline and the
//! functional engine dominate and MemSystem gains should not show here.
//! The kernel data is fixed inside xt-workloads; the seed does not change
//! this workload.

use crate::host::Clock;
use crate::ledger::Ledger;
use crate::single::{self, Job, Machine};
use crate::spans::Layer;
use crate::{Pass, Tracer, Workload};
use xt_compiler::CompileOpts;
use xt_workloads::{coremark, eembc, nbench, vecbench, Kernel};

/// Fig. 17's published XT-910 / U74 CoreMark ratio (7.1 / 5.1).
pub const FIG17_RATIO: f64 = 1.40;

pub struct Kernels;

fn job(k: Kernel, label: &str, machine: Machine) -> Job {
    let name = format!(
        "{}{label}@{}",
        k.name,
        if machine == Machine::Xt910 {
            "xt910"
        } else {
            "u74"
        }
    );
    let expected = k
        .expected
        .unwrap_or_else(|| panic!("{}: kernel has no self-check value", k.name));
    Job::new(name, k.program, machine, expected)
}

/// The CoreMark ×4 jobs on both machines, XT-910 first.
pub fn coremark_jobs() -> Vec<Job> {
    let suite = coremark::all(&CompileOpts::optimized());
    let mut jobs: Vec<Job> = suite
        .iter()
        .map(|k| job(k.clone(), "", Machine::Xt910))
        .collect();
    jobs.extend(suite.into_iter().map(|k| job(k, "", Machine::U74)));
    jobs
}

/// Fig. 17's error in percent from the cycles of [`coremark_jobs`].
pub fn fig17_err_pct(jobs: &[Job], cycles: &[u64]) -> f64 {
    let sum = |m: Machine| -> u64 {
        jobs.iter()
            .zip(cycles)
            .filter(|(j, _)| j.machine == m && j.name.starts_with("coremark/"))
            .map(|(_, c)| c)
            .sum()
    };
    // both machines run the same work, so the score ratio is the
    // inverse cycle ratio
    let ratio = sum(Machine::U74) as f64 / sum(Machine::Xt910) as f64;
    (ratio - FIG17_RATIO).abs() / FIG17_RATIO * 100.0
}

/// Runs `jobs` once, as ledger operations, traced when `tr` is given.
pub fn run_jobs(
    jobs: &[Job],
    ledger: &mut Ledger,
    clock: &mut Clock,
    mut tr: Option<&mut Tracer>,
    untraced: Option<&Pass>,
) -> Pass {
    let mut pass = Pass::default();
    for (i, j) in jobs.iter().enumerate() {
        let done = match tr.as_deref_mut() {
            None => ledger.op(&j.name, || single::run_checked(j, clock)),
            Some(t) => {
                let root = t.root;
                let reference = untraced.and_then(|u| u.digests.get(i).copied());
                ledger.op(&j.name, || {
                    single::run_traced_checked(j, t, root, reference)
                })
            }
        };
        let d = done.unwrap_or_default();
        pass.insts += d.insts;
        pass.digests.push(d.digest);
        pass.cycles.push(d.cycles);
    }
    pass
}

/// Times `xt_isa::decode`/`decode_compressed` over every program's text.
fn time_decode(jobs: &[Job], tr: &mut Tracer) {
    let span = tr.spans.open("isa.decode", Layer::Isa, Some(tr.root));
    let mut words = 0u64;
    for j in jobs.iter().filter(|j| j.machine == Machine::Xt910) {
        let text = &j.program.text;
        let mut at = 0;
        while at + 2 <= text.len() {
            let half = u16::from_le_bytes([text[at], text[at + 1]]);
            if half & 0b11 == 0b11 && at + 4 <= text.len() {
                let w = u32::from_le_bytes([text[at], text[at + 1], text[at + 2], text[at + 3]]);
                let _ = std::hint::black_box(xt_isa::decode(std::hint::black_box(w)));
                at += 4;
            } else {
                let _ = std::hint::black_box(xt_isa::decode_compressed(std::hint::black_box(half)));
                at += 2;
            }
            words += 1;
        }
    }
    tr.spans.close(span);
    tr.acc.add("isa.decode_ns", tr.spans.busy_ns(span) as f64);
    tr.acc.add("isa.words", words as f64);
}

impl Workload for Kernels {
    type Inputs = Vec<Job>;

    fn generate(_seed: u64) -> Vec<Job> {
        let opt = CompileOpts::optimized();
        let mut scalar: Vec<Kernel> = coremark::all(&opt);
        scalar.extend(eembc::all(&opt));
        scalar.extend(nbench::all(&opt));
        let mut jobs: Vec<Job> = scalar
            .iter()
            .map(|k| job(k.clone(), "", Machine::Xt910))
            .collect();
        jobs.extend(scalar.into_iter().map(|k| job(k, "", Machine::U74)));
        for (vector, tuned) in [(false, false), (false, true), (true, false), (true, true)] {
            let label = format!(
                "[{}/{}]",
                if vector { "rv64gcv" } else { "rv64gc" },
                if tuned { "tuned" } else { "base" }
            );
            for k in vecbench::all(&CompileOpts::ablation(vector, tuned)) {
                jobs.push(job(k, &label, Machine::Xt910));
            }
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
        mut tr: Option<&mut Tracer>,
        untraced: Option<&Pass>,
    ) -> Pass {
        if let Some(t) = tr.as_deref_mut() {
            time_decode(jobs, t);
        }
        run_jobs(jobs, ledger, clock, tr, untraced)
    }

    fn model_err_pct(jobs: &Vec<Job>, first: &Pass, _ledger: &mut Ledger) -> f64 {
        fig17_err_pct(jobs, &first.cycles)
    }
}

/// Fig. 17's error measured by running the CoreMark pair once, for the
/// workloads that do not run it themselves.
pub fn fig17_err_by_run(ledger: &mut Ledger) -> f64 {
    let jobs = coremark_jobs();
    let pass = run_jobs(&jobs, ledger, &mut Clock::raw(), None, None);
    fig17_err_pct(&jobs, &pass.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_has_48_jobs_with_distinct_names() {
        let jobs = Kernels::generate(1);
        assert_eq!(jobs.len(), 48);
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 48);
    }

    #[test]
    fn a_wrong_expected_exit_code_is_a_failed_operation() {
        let mut jobs = coremark_jobs();
        jobs.truncate(1);
        let mut ledger = Ledger::default();
        run_jobs(&jobs, &mut ledger, &mut Clock::raw(), None, None);
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));
        jobs[0].expected ^= 1;
        run_jobs(&jobs, &mut ledger, &mut Clock::raw(), None, None);
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
    }
}
