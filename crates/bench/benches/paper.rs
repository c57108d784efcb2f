//! Timing benches — one group per paper table/figure.
//!
//! Each bench runs a scaled-down version of the corresponding experiment
//! so `cargo bench` completes in minutes; the `figures` binary runs the
//! full-size reproduction and prints the paper-side-by-side numbers
//! (EXPERIMENTS.md records those). The harness here tracks the
//! simulator's own host-side performance per experiment; it runs on the
//! in-tree `xt_harness::bench` timer so the workspace stays
//! dependency-free (criterion is not available offline).

use std::hint::black_box;
use xt_harness::bench::Group;
use xt_compiler::CompileOpts;
use xt_core::{CoreConfig, InOrderSession, OooSession};
use xt_mem::{MemConfig, PrefetchConfig};
use xt_workloads::{ai, blockchain, coremark, eembc, nbench, stream};

/// Dynamic-instruction budget per simulated run.
const MAX_INSTS: u64 = 50_000_000;

fn quick(name: &str, mut f: impl FnMut() -> u64) {
    let mut g = Group::new(name);
    g.sample_size(10);
    g.bench_function("run", || black_box(f()));
    g.finish();
}

/// Table I: configuration-space instantiation.
fn table1() {
    quick("table1_configs", || {
        let mut n = 0;
        for cores in [1usize, 2, 4] {
            let cfg = MemConfig {
                cores,
                ..MemConfig::default()
            };
            cfg.validate().unwrap();
            let _ = xt_mem::MemSystem::new(cfg);
            n += 1;
        }
        n
    });
}

/// Table II: the analytical PPA model.
fn table2() {
    quick("table2_ppa_model", || {
        xt_uarch_model::table2().len() as u64
    });
}

/// Fig. 17: CoreMark-class kernel on both machines.
fn fig17() {
    let k = coremark::crc(&CompileOpts::optimized());
    let (xt910, u74) = (CoreConfig::xt910(), CoreConfig::u74_like());
    quick("fig17_coremark_crc", || {
        let xt = OooSession::new(&k.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        let base = InOrderSession::new(&k.program, &u74, u74.mem, MAX_INSTS).run_to_end();
        xt.perf.cycles + base.perf.cycles
    });
}

/// Fig. 18: an EEMBC-class kernel vs the A73-class reference.
fn fig18() {
    let k = eembc::rgbcmyk(&CompileOpts::optimized());
    let (xt910, a73) = (CoreConfig::xt910(), CoreConfig::a73_like());
    quick("fig18_eembc_rgbcmyk", || {
        let xt = OooSession::new(&k.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        let base = OooSession::new(&k.program, &a73, a73.mem, MAX_INSTS).run_to_end();
        xt.perf.cycles + base.perf.cycles
    });
}

/// Fig. 19: an NBench-class kernel vs the A73-class reference.
fn fig19() {
    let k = nbench::bitfield(&CompileOpts::optimized());
    let (xt910, a73) = (CoreConfig::xt910(), CoreConfig::a73_like());
    quick("fig19_nbench_bitfield", || {
        let xt = OooSession::new(&k.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        let base = OooSession::new(&k.program, &a73, a73.mem, MAX_INSTS).run_to_end();
        xt.perf.cycles + base.perf.cycles
    });
}

/// Fig. 20: toolchain toggle on one kernel.
fn fig20() {
    let native = eembc::fir(&CompileOpts::native());
    let opt = eembc::fir(&CompileOpts::optimized());
    let xt910 = CoreConfig::xt910();
    quick("fig20_toolchain_fir", || {
        let n = OooSession::new(&native.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        let o = OooSession::new(&opt.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        n.perf.cycles + o.perf.cycles
    });
}

/// Fig. 21: STREAM prefetch on/off (reduced array size).
fn fig21() {
    let k = stream::stream(8 * 1024);
    let xt910 = CoreConfig::xt910();
    quick("fig21_stream_prefetch", || {
        let mut total = 0;
        for pf in [PrefetchConfig::off(), PrefetchConfig::all_large()] {
            let mem = MemConfig {
                dram_latency: 200,
                l2_kib: 256,
                l2_ways: 8,
                prefetch: pf,
                ..MemConfig::default()
            };
            let r = OooSession::new(&k.program, &xt910, mem, MAX_INSTS).run_to_end();
            total += r.perf.cycles;
        }
        total
    });
}

/// §X vector MACs.
fn vector_mac() {
    let v = ai::dot_vector();
    let xt910 = CoreConfig::xt910();
    quick("vector_mac_dot", || {
        let r = OooSession::new(&v.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        r.perf.cycles
    });
}

/// §I blockchain kernel.
fn blockchain_bench() {
    let k = blockchain::hash_verify(true);
    let xt910 = CoreConfig::xt910();
    quick("blockchain_hash_ext", || {
        let r = OooSession::new(&k.program, &xt910, xt910.mem, MAX_INSTS).run_to_end();
        r.perf.cycles
    });
}

fn main() {
    table1();
    table2();
    fig17();
    fig18();
    fig19();
    fig20();
    fig21();
    vector_mac();
    blockchain_bench();
}
