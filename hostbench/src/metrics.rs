//! Per-layer metrics of the traced run, computed from its spans and
//! counters. Every metric is printed on every workload; a layer that a
//! workload does not run reads 0.

use crate::spans::Layer;
use crate::Tracer;

/// Name and unit of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_mips", "Minst/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_err_pct", "%"),
];

/// Name and unit of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("isa.decode_ns_per_word", "ns/word"),
    ("isa.share", "ratio"),
    ("emu.ns_per_inst", "ns/inst"),
    ("emu.share", "ratio"),
    ("emu.block_hit_ratio", "ratio"),
    ("emu.blocks_built", "count"),
    ("core.ooo.ns_per_inst", "ns/inst"),
    ("core.ooo.self_ns_per_inst", "ns/inst"),
    ("core.inorder.ns_per_inst", "ns/inst"),
    ("core.share", "ratio"),
    ("core.insts", "count"),
    ("core.sim_cycles", "count"),
    ("mem.ns_per_op", "ns/op"),
    ("mem.ops", "count"),
    ("mem.share", "ratio"),
    ("mem.l1d_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.pf_accuracy", "ratio"),
    ("cluster.ms_per_epoch", "ms/epoch"),
    ("cluster.epochs", "count"),
    ("cluster.serial_share", "ratio"),
    ("cluster.thread_speedup", "x"),
    ("cluster.snoop_sent_ratio", "ratio"),
    ("cluster.share", "ratio"),
    ("snapshot.frame_mb", "MB"),
    ("snapshot.save_mbps", "MB/s"),
    ("snapshot.restore_mbps", "MB/s"),
    ("snapshot.share", "ratio"),
    ("perf.sampler_us_per_sample", "us/sample"),
    ("perf.samples", "count"),
    ("perf.share", "ratio"),
    ("trace.records", "count"),
    ("trace.konata_ms", "ms"),
    ("trace.konata_mb", "MB"),
    ("trace.share", "ratio"),
    ("memtrace.events", "count"),
    ("memtrace.chrome_ms", "ms"),
    ("memtrace.reconcile_ms", "ms"),
    ("memtrace.share", "ratio"),
    ("setup.compile_ms", "ms"),
    ("setup.load_ms", "ms"),
    ("bench.trace_overhead", "x"),
    ("bench.check_share", "ratio"),
    ("bench.residue_share", "ratio"),
    ("bench.traced_passes", "count"),
];

/// One printed metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

const MIB: f64 = 1024.0 * 1024.0;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Largest share of the traced wall time that the root spans may leave
/// uncovered (the cost of opening and closing them).
const UNCOVERED_WALL: f64 = 1e-3;

/// Computes every [`PER_LAYER`] metric. Counts are per traced pass.
/// Also checks the spans against the traced wall time, which is measured
/// around each traced pass independently of them: every span's children
/// must fit inside it, and the root spans must cover the wall to within
/// [`UNCOVERED_WALL`]. Shares are of that wall; the residue is the
/// benchmark's own span time plus what the root spans leave uncovered.
pub fn per_layer(
    tr: &Tracer,
    passes: f64,
    compile_ms: f64,
    load_ms: f64,
    overhead: f64,
) -> (Vec<Metric>, Result<(), String>) {
    let a = &tr.acc;
    let wall_ns = a.get("bench.wall_ns");
    let (layers, root_ns, balanced) = match tr.spans.self_times() {
        Ok((layers, root_ns)) => {
            let uncovered = wall_ns - root_ns as f64;
            let balanced = if wall_ns > 0.0 && (0.0..=UNCOVERED_WALL * wall_ns).contains(&uncovered)
            {
                Ok(())
            } else {
                Err(format!(
                    "the root spans cover {root_ns} ns of {wall_ns} ns of traced wall time"
                ))
            };
            (layers, root_ns as f64, balanced)
        }
        Err(e) => (Vec::new(), 0.0, Err(e)),
    };
    let ns = |l: Layer| layers.iter().find(|(x, _)| *x == l).map_or(0, |(_, n)| *n) as f64;
    let share = |l: Layer| ratio(ns(l), wall_ns);
    let per_pass = |k: &str| ratio(a.get(k), passes);
    let insts = a.get("core.insts");
    let ooo = a.get("core.ooo.insts");
    let inorder = a.get("core.inorder.insts");
    let value = |name: &str| -> f64 {
        match name {
            "isa.decode_ns_per_word" => ratio(a.get("isa.decode_ns"), a.get("isa.words")),
            "isa.share" => share(Layer::Isa),
            "emu.ns_per_inst" => ratio(a.get("emu.ns"), a.get("emu.insts")),
            "emu.share" => share(Layer::Emu),
            "emu.block_hit_ratio" => ratio(
                a.get("emu.block_hits"),
                a.get("emu.block_hits") + a.get("emu.block_misses"),
            ),
            "emu.blocks_built" => per_pass("emu.blocks_built"),
            "core.ooo.ns_per_inst" => ratio(a.get("core.ooo.step_ns"), ooo),
            "core.ooo.self_ns_per_inst" => {
                ratio(a.get("core.ooo.step_ns") - a.get("core.ooo.replay_ns"), ooo)
            }
            "core.inorder.ns_per_inst" => ratio(a.get("core.inorder.step_ns"), inorder),
            "core.share" => share(Layer::Core),
            "core.insts" => ratio(insts, passes),
            "core.sim_cycles" => per_pass("core.sim_cycles"),
            "mem.ns_per_op" => ratio(a.get("mem.replay_ns"), a.get("mem.ops")),
            "mem.ops" => per_pass("mem.ops"),
            "mem.share" => share(Layer::Mem),
            "mem.l1d_miss_ratio" => ratio(
                a.get("mem.l1d_misses"),
                a.get("mem.l1d_hits") + a.get("mem.l1d_misses"),
            ),
            "mem.l2_miss_ratio" => ratio(
                a.get("mem.l2_misses"),
                a.get("mem.l2_hits") + a.get("mem.l2_misses"),
            ),
            "mem.pf_accuracy" => ratio(a.get("mem.pf_useful"), a.get("mem.pf_issued")),
            "cluster.ms_per_epoch" => ratio(
                a.get("cluster.step_ns") / 1e6,
                a.get("cluster.stepped_epochs"),
            ),
            "cluster.epochs" => per_pass("cluster.epochs"),
            "cluster.serial_share" => ratio(
                a.get("cluster.serial_ns"),
                a.get("cluster.serial_ns") + a.get("cluster.parallel_ns"),
            ),
            "cluster.thread_speedup" => ratio(a.get("cluster.t1_ns"), a.get("cluster.t2_ns")),
            "cluster.snoop_sent_ratio" => ratio(
                a.get("cluster.snoops_sent"),
                a.get("cluster.probe_candidates"),
            ),
            "cluster.share" => share(Layer::Cluster),
            "snapshot.frame_mb" => ratio(a.get("snapshot.bytes") / MIB, a.get("snapshot.frames")),
            "snapshot.save_mbps" => ratio(
                a.get("snapshot.bytes") / MIB,
                a.get("snapshot.save_ns") / 1e9,
            ),
            "snapshot.restore_mbps" => ratio(
                a.get("snapshot.bytes") / MIB,
                (a.get("cluster.new_ns") + a.get("snapshot.restore_ns")) / 1e9,
            ),
            "snapshot.share" => share(Layer::Snapshot),
            "perf.sampler_us_per_sample" => ratio(a.get("perf.ns") / 1e3, a.get("perf.samples")),
            "perf.samples" => per_pass("perf.samples"),
            "perf.share" => share(Layer::Perf),
            "trace.records" => per_pass("trace.records"),
            "trace.konata_ms" => ratio(a.get("trace.konata_ns") / 1e6, passes),
            "trace.konata_mb" => ratio(a.get("trace.konata_bytes") / MIB, passes),
            "trace.share" => share(Layer::Trace),
            "memtrace.events" => per_pass("memtrace.events"),
            "memtrace.chrome_ms" => ratio(a.get("memtrace.chrome_ns") / 1e6, passes),
            "memtrace.reconcile_ms" => ratio(a.get("memtrace.reconcile_ns") / 1e6, passes),
            "memtrace.share" => share(Layer::MemTrace),
            "setup.compile_ms" => compile_ms,
            "setup.load_ms" => load_ms,
            "bench.trace_overhead" => overhead,
            "bench.check_share" => share(Layer::Check),
            "bench.residue_share" => ratio(ns(Layer::Bench) + wall_ns - root_ns, wall_ns),
            "bench.traced_passes" => passes,
            other => unreachable!("metric {other} has no definition"),
        }
    };
    let out = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, value(name), unit))
        .collect();
    (out, balanced)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed here are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str, next: &str| -> Vec<(String, String)> {
            let body = &doc[doc.find(section).expect(section)..];
            let body = &body[..body.find(next).unwrap_or(body.len())];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s[..s.find('"').unwrap()].to_string();
                    let u = &s[s.find("\"unit\": \"").unwrap() + 9..];
                    (name, u[..u.find('"').unwrap()].to_string())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            declared("\"end_to_end\"", "\"per_layer\""),
            own(&END_TO_END)
        );
        assert_eq!(declared("\"per_layer\"", "\"workloads\""), own(&PER_LAYER));
    }
}
