//! The cluster engine's determinism contract: one simulation, any host
//! thread count, bit-identical results.
//!
//! A 4-core workload mixing private streaming, a contended atomic
//! counter, and a fence-synchronized producer/consumer pair runs through
//! the epoch engine at 1 (every slice inline), 2, and 4 workers. Perf
//! counters, memory-system statistics, exit codes, and Konata pipeline
//! traces must match byte for byte (docs/CLUSTER.md). A 1-core cluster
//! must match a plain single-core session.

use xt_asm::{Asm, Program};
use xt_core::{CoreConfig, OooSession};
use xt_isa::reg::Gpr;
use xt_mem::MemConfig;
use xt_soc::{ClusterReport, ClusterSim};

const MAX_INSTS: u64 = 2_000_000;

/// Core 0: private streaming sum over 64 KiB.
fn stream_kernel() -> Program {
    let mut a = Asm::new().with_data_base(0x8300_0000);
    let buf = a.data_zeros("buf", 64 * 1024);
    a.la(Gpr::A1, buf);
    a.li(Gpr::A2, 8192);
    let top = a.here();
    a.ld(Gpr::A4, Gpr::A1, 0);
    a.add(Gpr::A5, Gpr::A5, Gpr::A4);
    a.addi(Gpr::A1, Gpr::A1, 8);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.mv(Gpr::A0, Gpr::A5);
    a.halt();
    a.finish().unwrap()
}

/// Cores 1-2: hammer one shared atomic counter.
fn counter_kernel(iters: i64) -> Program {
    let mut a = Asm::new();
    let cell = a.data_u64("cell", &[0]);
    a.la(Gpr::A1, cell);
    a.li(Gpr::A2, iters);
    a.li(Gpr::A3, 1);
    let top = a.here();
    a.amoadd_d(Gpr::A4, Gpr::A3, Gpr::A1);
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.mv(Gpr::A0, Gpr::A4);
    a.halt();
    a.finish().unwrap()
}

/// Core 3: publishes into a mailbox with a fence after every write,
/// exercising the barrier's park/release path on each iteration.
fn fenced_producer(iters: i64) -> Program {
    let mut a = Asm::new().with_data_base(0x8400_0000);
    let slot = a.data_u64("slot", &[0]);
    a.la(Gpr::A1, slot);
    a.li(Gpr::A2, iters);
    let top = a.here();
    a.sd(Gpr::A2, Gpr::A1, 0);
    a.fence();
    a.addi(Gpr::A2, Gpr::A2, -1);
    a.bnez(Gpr::A2, top);
    a.li(Gpr::A0, 0);
    a.halt();
    a.finish().unwrap()
}

fn build() -> ClusterSim {
    let progs = vec![
        stream_kernel(),
        counter_kernel(300),
        counter_kernel(300),
        fenced_producer(100),
    ];
    let mem_cfg = MemConfig {
        cores: progs.len(),
        ..MemConfig::default()
    };
    ClusterSim::new(&progs, &CoreConfig::xt910(), mem_cfg, MAX_INSTS).with_tracers()
}

fn assert_identical(a: &ClusterReport, b: &ClusterReport, what: &str) {
    assert_eq!(a.cores, b.cores, "{what}: per-core perf counters differ");
    assert_eq!(a.mem, b.mem, "{what}: memory-system stats differ");
    assert_eq!(a.exit_codes, b.exit_codes, "{what}: exit codes differ");
    let (ka, kb) = (a.konata.as_ref().unwrap(), b.konata.as_ref().unwrap());
    assert_eq!(ka.len(), kb.len(), "{what}: trace count differs");
    for (i, (ta, tb)) in ka.iter().zip(kb).enumerate() {
        assert!(
            ta == tb,
            "{what}: core {i} Konata trace diverges (len {} vs {})",
            ta.len(),
            tb.len()
        );
    }
}

/// The headline contract: 1 thread (every slice inline) == 2 threads
/// == 4 threads, byte for byte, including pipeline traces.
#[test]
fn thread_count_does_not_change_results() {
    let t1 = build().run_threads(1);
    let t2 = build().run_threads(2);
    let t4 = build().run_threads(4);
    assert_identical(&t1, &t2, "1 vs 2 threads");
    assert_identical(&t1, &t4, "1 vs 4 threads");
    // sanity: the workload really ran
    assert!(t1.total_instructions() > 40_000);
    assert!(t1.mem.snoops_sent > 0, "counter cores contend");
}

/// Determinism must hold at every epoch length, including degenerate
/// single-cycle epochs (maximum barrier pressure) and oversized ones.
#[test]
fn thread_count_invariance_across_epoch_lengths() {
    for epoch in [1, 97, 4096, 1 << 20] {
        let t1 = build().with_epoch(epoch).run_threads(1);
        let t4 = build().with_epoch(epoch).run_threads(4);
        assert_identical(&t1, &t4, &format!("epoch {epoch}"));
    }
}

/// Two identical runs at the same thread count are themselves
/// bit-identical — no wall-clock or scheduling leak into the model.
#[test]
fn repeated_runs_are_reproducible() {
    let a = build().run_threads(4);
    let b = build().run_threads(4);
    assert_identical(&a, &b, "repeated 4-thread runs");
}

/// The decoded-block cache (docs/FASTPATH.md) is a per-core speed
/// optimization and must not perturb the cluster contract: with caching
/// forced off, every thread count still reproduces the cached runs'
/// reports bit for bit — counters, memory stats, exit codes, and Konata
/// traces.
#[test]
fn fastpath_does_not_change_cluster_results() {
    let fast = build().with_fastpath(true).run_threads(1);
    for threads in [1, 2, 4] {
        let on = build().with_fastpath(true).run_threads(threads);
        let off = build().with_fastpath(false).run_threads(threads);
        assert_identical(&fast, &on, &format!("fast, {threads} threads"));
        assert_identical(&fast, &off, &format!("slow, {threads} threads"));
    }
}

/// A 1-core cluster has no replicas and no barrier: it steps straight
/// against the master hierarchy, in epoch-sized chunks. At every epoch
/// length and thread count it must reproduce a plain single-core
/// session of the same program — counters, memory stats and exit code.
#[test]
fn one_core_cluster_matches_a_session() {
    let kernel = xt_workloads::stream::stream(2048);
    let cfg = CoreConfig::xt910();
    let session = OooSession::new(&kernel.program, &cfg, cfg.mem, MAX_INSTS).run_to_end();
    assert_eq!(session.exit_code, kernel.expected, "STREAM self-checks");
    for epoch in [1, 7, 8192, 1 << 20] {
        for threads in [1, 2] {
            let progs = std::slice::from_ref(&kernel.program);
            let r = ClusterSim::new(progs, &cfg, cfg.mem, MAX_INSTS)
                .with_epoch(epoch)
                .run_threads(threads);
            let what = format!("epoch {epoch}, {threads} threads");
            assert_eq!(r.cores[0], session.perf, "{what}: perf counters differ");
            assert_eq!(r.mem, session.mem, "{what}: memory-system stats differ");
            assert_eq!(
                r.exit_codes[0], session.exit_code,
                "{what}: exit code differs"
            );
            assert!(
                r.engine.epochs >= session.perf.cycles / epoch,
                "{what}: epochs counted"
            );
        }
    }
}
