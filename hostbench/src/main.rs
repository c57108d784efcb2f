//! Host-speed benchmark of the XT-910 simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload kernels --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one workload (`kernels`, `memwalk`, `cluster4` or `observe`)
//! through the public API of the workspace crates and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` makes a separate traced run that times each layer's public
//! entry points from outside and reports the per-layer metrics. See
//! `hostbench/README.md` for the workloads, the metrics and the protocol.

mod cluster4;
mod host;
mod kernels;
mod ledger;
mod memwalk;
mod metrics;
mod observe;
mod single;
mod spans;

use host::{Clock, Probe};
use ledger::{Fnv, Ledger};
use spans::{Layer, SpanId, Spans};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The seed used when `--seed` is not given (README.md names the
/// held-out seed).
pub const DEFAULT_SEED: u64 = 1;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 11;
/// Fewest timed passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;
/// Host threads for the cluster engine (the benchmark's `nproc`).
pub const THREADS: usize = 2;

/// Named sums collected by the traced run.
#[derive(Debug, Default)]
pub struct Acc(BTreeMap<String, f64>);

impl Acc {
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, key: &str, v: f64) {
        self.0.insert(key.to_string(), v);
    }
}

/// State of a traced run: its spans, the span of the current pass, and
/// the counters the per-layer metrics are computed from.
pub struct Tracer {
    pub spans: Spans,
    pub root: SpanId,
    pub acc: Acc,
}

impl Tracer {
    /// Records the counters of one finished single-core run.
    pub fn note_run(&mut self, r: &xt_core::RunReport, trace: &xt_emu::TraceSource) {
        let cs = trace.emulator().cache_stats();
        self.acc.add("emu.block_hits", cs.hits as f64);
        self.acc.add("emu.block_misses", cs.misses as f64);
        self.acc.add("emu.blocks_built", cs.blocks_built as f64);
        self.acc.add("core.insts", r.perf.instructions as f64);
        self.acc.add("core.sim_cycles", r.perf.cycles as f64);
        self.note_mem(&r.mem);
    }

    /// Records the cache and prefetch counters of one memory system.
    pub fn note_mem(&mut self, m: &xt_mem::MemStats) {
        let (h, mi) = m
            .l1d
            .iter()
            .fold((0, 0), |(h, mi), &(a, b)| (h + a, mi + b));
        self.acc.add("mem.l1d_hits", h as f64);
        self.acc.add("mem.l1d_misses", mi as f64);
        let (h2, m2) = m.l2();
        self.acc.add("mem.l2_hits", h2 as f64);
        self.acc.add("mem.l2_misses", m2 as f64);
        self.acc.add(
            "mem.pf_issued",
            m.prefetches_issued.iter().sum::<u64>() as f64,
        );
        self.acc.add(
            "mem.pf_useful",
            m.prefetches_useful.iter().sum::<u64>() as f64,
        );
    }
}

/// Times `f` as one clock window and, in a traced run, as a span named
/// `name` under `parent` whose nanoseconds are added to the accumulator
/// under `<name>_ns`. Returns the result and the window's raw
/// nanoseconds.
pub fn timed<R>(
    clock: &mut Clock,
    tr: Option<&mut Tracer>,
    parent: SpanId,
    name: &str,
    layer: Layer,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let Some(t) = tr else {
        return clock.time_ns(f);
    };
    let id = t.spans.open(name, layer, Some(parent));
    let (r, ns) = clock.time_ns(f);
    t.spans.close(id);
    t.acc.add(&format!("{name}_ns"), ns as f64);
    (r, ns)
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Guest instructions retired, summed over cores.
    pub insts: u64,
    /// Digest of each operation's simulated counters, in order.
    pub digests: Vec<u64>,
    /// Simulated cycles per operation, in order (model-error input).
    pub cycles: Vec<u64>,
}

impl Pass {
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &d in &self.digests {
            h.u64(d);
        }
        h.0
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The guest programs and host expectations generated from a seed.
    type Inputs;
    /// Generates (and compiles or assembles) the guest programs.
    fn generate(seed: u64) -> Self::Inputs;
    /// Builds, once, every session or cluster a pass runs, exactly as a
    /// pass does before its first step (set-up cost; dropped after).
    fn load_all(inputs: &Self::Inputs);
    /// One pass over every operation. Traced when `tr` is given; then
    /// `untraced` is an untraced pass of the same inputs to compare with.
    /// The timed windows go through `clock`.
    fn pass(
        inputs: &Self::Inputs,
        ledger: &mut Ledger,
        clock: &mut Clock,
        tr: Option<&mut Tracer>,
        untraced: Option<&Pass>,
    ) -> Pass;
    /// Work done once per run after set-up and before the first pass,
    /// outside every timed window (reference runs).
    fn prepare(_inputs: &Self::Inputs) {}
    /// Distance in percent from the paper's published ratio.
    fn model_err_pct(inputs: &Self::Inputs, first: &Pass, ledger: &mut Ledger) -> f64;
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.clamp(1, 600),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up repetition: raw generate and load durations in seconds,
/// and their sum normalised to the nominal host.
struct SetupRep {
    generate_s: f64,
    load_s: f64,
    /// Both, normalised to the nominal host.
    norm_s: f64,
}

/// Generates and loads `SETUP_REPS` times; returns the inputs and every
/// repetition's timings.
fn setup<W: Workload>(seed: u64, probe: &mut Probe) -> (W::Inputs, Vec<SetupRep>) {
    let mut reps = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let mut clock = Clock::probed(probe);
        let (i, generate_ns) = clock.time_ns(|| W::generate(seed));
        let ((), load_ns) = clock.time_ns(|| W::load_all(&i));
        let (_, norm_ns) = clock.finish();
        reps.push(SetupRep {
            generate_s: generate_ns as f64 / 1e9,
            load_s: load_ns as f64 / 1e9,
            norm_s: norm_ns / 1e9,
        });
        inputs = Some(i);
    }
    (inputs.expect("SETUP_REPS > 0"), reps)
}

/// Fails a run whose passes disagree on the simulated result.
fn check_digests(passes: &[Pass], ledger: &mut Ledger) -> u64 {
    let first = passes[0].digest();
    for (i, p) in passes.iter().enumerate().skip(1) {
        for (j, (a, b)) in passes[0].digests.iter().zip(&p.digests).enumerate() {
            if a != b {
                ledger.fail(
                    &format!("pass {i} op {j}"),
                    "sim digest differs from pass 0",
                );
            }
        }
    }
    first
}

struct Outcome {
    correct: bool,
    ledger: Ledger,
    metrics: Vec<metrics::Metric>,
}

/// The untraced run: end-to-end metrics. Times are scaled to the
/// nominal host (see [`host`]).
fn measure<W: Workload>(args: &Args) -> Outcome {
    let mut probe = Probe::new();
    let (inputs, setups) = setup::<W>(args.seed, &mut probe);
    let setup_norm: Vec<f64> = setups.iter().map(|r| r.norm_s).collect();
    let setup_s = median(&setup_norm);
    let mut ledger = Ledger::default();
    W::prepare(&inputs);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut passes, mut raw, mut mips) = (Vec::new(), Vec::new(), Vec::new());
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        let mut clock = Clock::probed(&mut probe);
        let p = W::pass(&inputs, &mut ledger, &mut clock, None, None);
        let (raw_ns, norm_ns) = clock.finish();
        raw.push(p.insts as f64 / (raw_ns.max(1) as f64 / 1e9) / 1e6);
        mips.push(p.insts as f64 / (norm_ns.max(1.0) / 1e9) / 1e6);
        passes.push(p);
    }
    let digest = check_digests(&passes, &mut ledger);
    let err = W::model_err_pct(&inputs, &passes[0], &mut ledger);
    let show = |v: &[f64]| {
        v.iter()
            .map(|m| format!("{m:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("sim_digest={digest:#018x} seed={}", args.seed);
    println!("pass_mips=[{}] raw_pass_mips=[{}]", show(&mips), show(&raw));
    let ms: Vec<f64> = setup_norm.iter().map(|s| s * 1e3).collect();
    println!("setup_ms=[{}] probe_rate={:.3}", show(&ms), probe.rate());
    let values = [median(&mips), setup_s, peak_rss_mb(), err];
    Outcome {
        correct: ledger.failed == 0,
        metrics: metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect(),
        ledger,
    }
}

/// The traced run: alternates untraced and traced passes for the time
/// budget and reports the per-layer metrics.
fn trace_run<W: Workload>(args: &Args) -> Outcome {
    let (inputs, setups) = setup::<W>(args.seed, &mut Probe::new());
    let mut ledger = Ledger::default();
    let mut tr = Tracer {
        spans: Spans::new(),
        root: 0,
        acc: Acc::default(),
    };
    W::prepare(&inputs);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut walls_u, mut walls_t) = (Vec::new(), Vec::new());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let u = W::pass(&inputs, &mut ledger, &mut Clock::raw(), None, None);
        walls_u.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        tr.root = tr.spans.open("pass", Layer::Bench, None);
        let p = W::pass(
            &inputs,
            &mut ledger,
            &mut Clock::raw(),
            Some(&mut tr),
            Some(&u),
        );
        tr.spans.close(tr.root);
        let wall = t.elapsed();
        walls_t.push(wall.as_secs_f64());
        tr.acc.add("bench.wall_ns", wall.as_nanos() as f64);
        if p.digest() != u.digest() {
            ledger.fail("traced pass", "sim digest differs from the untraced pass");
        }
        untraced.push(u);
        traced.push(p);
    }
    let digest = check_digests(&untraced, &mut ledger);
    println!(
        "sim_digest={digest:#018x} traced_passes={} seed={}",
        traced.len(),
        args.seed
    );
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("hostbench-spans");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.spans.to_json()))
    {
        eprintln!(
            "hostbench: could not write spans to {}: {e}",
            path.display()
        );
    }
    let compile_ms = median(
        &setups
            .iter()
            .map(|r| r.generate_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let load_ms = median(&setups.iter().map(|r| r.load_s * 1e3).collect::<Vec<_>>());
    let overhead = median(&walls_t) / median(&walls_u);
    let (m, balanced) = metrics::per_layer(&tr, traced.len() as f64, compile_ms, load_ms, overhead);
    if let Err(e) = balanced {
        ledger.fail("traced run", &e);
    }
    Outcome {
        correct: ledger.failed == 0,
        metrics: m,
        ledger,
    }
}

/// A metric the run could not compute (a division by zero after a
/// failed operation) prints as `null`, never as a number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!("usage: --workload <kernels|memwalk|cluster4|observe> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    macro_rules! dispatch {
        ($w:ty) => {
            if args.trace {
                trace_run::<$w>(&args)
            } else {
                measure::<$w>(&args)
            }
        };
    }
    let out = match args.workload.as_str() {
        "kernels" => dispatch!(kernels::Kernels),
        "memwalk" => dispatch!(memwalk::Memwalk),
        "cluster4" => dispatch!(cluster4::Cluster4),
        "observe" => dispatch!(observe::Observe),
        other => {
            eprintln!("hostbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for f in &out.ledger.failures {
        eprintln!("hostbench: FAILED {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.ledger.attempted,
        out.ledger.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok: Vec<String> = [
            "--workload",
            "kernels",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kernels", 7, 3, true)
        );
        for bad in [
            &["--trace", "2"][..],
            &["--seed", "x"],
            &["--bogus", "1"],
            &["--seed"],
        ] {
            let v: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&v).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_metric_that_could_not_be_computed_prints_as_null() {
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(7.5), "7.5");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
