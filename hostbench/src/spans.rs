//! In-memory spans for the traced run, and per-layer self times.
//!
//! Every span has a name, a start, an end and a parent. Calls that
//! happen once per simulated instruction (`TraceSource::try_next`,
//! `CoreModel::step_inst`) would need millions of spans, so they are
//! folded into one *aggregate* span per job: its start and end are those
//! of the first and last call, and its busy time is the sum of the
//! calls. A span's self time is its busy time minus its children's busy
//! time, so the self times of all spans under a root add up to the
//! root's duration exactly.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span's self time is charged to. Layers are named after
/// the workspace crates; `Check` is the benchmark's own verification
/// work (MemOp replay, digests) and `Bench` collects the residue that no
/// layer accounts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Isa,
    Emu,
    Core,
    Mem,
    Cluster,
    Snapshot,
    Perf,
    Trace,
    MemTrace,
    Check,
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Isa,
        Layer::Emu,
        Layer::Core,
        Layer::Mem,
        Layer::Cluster,
        Layer::Snapshot,
        Layer::Perf,
        Layer::Trace,
        Layer::MemTrace,
        Layer::Check,
        Layer::Bench,
    ];

    /// Prefix of this layer's metrics.
    pub fn key(self) -> &'static str {
        match self {
            Layer::Isa => "isa",
            Layer::Emu => "emu",
            Layer::Core => "core",
            Layer::Mem => "mem",
            Layer::Cluster => "cluster",
            Layer::Snapshot => "snapshot",
            Layer::Perf => "perf",
            Layer::Trace => "trace",
            Layer::MemTrace => "memtrace",
            Layer::Check => "check",
            Layer::Bench => "bench",
        }
    }
}

/// Index of a span in its [`Spans`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    layer: Layer,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
    calls: u64,
    /// Part of this span's self time that belongs to another layer, by
    /// estimate (the MemSystem share of `step_inst`, from the replay).
    carve: Option<(Layer, u64)>,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: String,
        layer: Layer,
        parent: Option<SpanId>,
        start_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            calls: 0,
            carve: None,
        });
        self.spans.len() - 1
    }

    /// Opens an ordinary span; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        parent: Option<SpanId>,
    ) -> SpanId {
        let now = self.now_ns();
        self.push(name.into(), layer, parent, now)
    }

    /// Closes an ordinary span.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.busy_ns = now - s.start_ns;
        s.calls = 1;
    }

    /// Creates an aggregate span; add calls to it with [`Spans::add`].
    pub fn aggregate(&mut self, name: impl Into<String>, layer: Layer, parent: SpanId) -> SpanId {
        let now = self.now_ns();
        self.push(name.into(), layer, Some(parent), now)
    }

    /// Adds one call, which ran from `t0` to `t1`, to an aggregate span.
    #[inline]
    pub fn add(&mut self, id: SpanId, t0: Instant, t1: Instant) {
        let (a, b) = (self.at_ns(t0), self.at_ns(t1));
        let s = &mut self.spans[id];
        if s.calls == 0 {
            s.start_ns = a;
        }
        s.end_ns = b;
        s.busy_ns += b - a;
        s.calls += 1;
    }

    /// Charges up to `ns` of span `id`'s self time to `layer` instead of
    /// the span's own layer.
    pub fn carve(&mut self, id: SpanId, layer: Layer, ns: u64) {
        self.spans[id].carve = Some((layer, ns));
    }

    /// Busy nanoseconds of one span.
    pub fn busy_ns(&self, id: SpanId) -> u64 {
        self.spans[id].busy_ns
    }

    /// Self time per layer, summed over every span, plus the total busy
    /// time of the root spans (those without a parent). Fails if any
    /// span's children were busy longer than the span itself (a child
    /// that outlives its parent, or children that overlap); otherwise the
    /// per-layer values add up to the root total exactly.
    pub fn self_times(&self) -> Result<(Vec<(Layer, u64)>, u64), String> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut per_layer: Vec<(Layer, u64)> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
        let mut charge = |layer: Layer, ns: u64| {
            let slot = per_layer
                .iter_mut()
                .find(|(l, _)| *l == layer)
                .expect("every layer has a slot");
            slot.1 += ns;
        };
        let mut root = 0;
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.busy_ns.checked_sub(child_busy[i]).ok_or_else(|| {
                format!(
                    "span {i} ({}) was busy {} ns, its children {} ns",
                    s.name, s.busy_ns, child_busy[i]
                )
            })?;
            match s.carve {
                Some((layer, ns)) => {
                    let moved = ns.min(own);
                    charge(layer, moved);
                    charge(s.layer, own - moved);
                }
                None => charge(s.layer, own),
            }
            if s.parent.is_none() {
                root += s.busy_ns;
            }
        }
        Ok((per_layer, root))
    }

    /// Renders every span as one JSON document (written when the run
    /// ends).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"calls\": {}}}",
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.layer.key(),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut s = Spans::new();
        let root = s.open("pass", Layer::Bench, None);
        let job = s.open("job", Layer::Bench, Some(root));
        let agg = s.aggregate("step", Layer::Core, job);
        for _ in 0..3 {
            let t0 = Instant::now();
            std::hint::black_box((0..1000).sum::<u64>());
            s.add(agg, t0, Instant::now());
        }
        s.close(job);
        s.carve(agg, Layer::Mem, 1);
        s.close(root);
        let (layers, total) = s.self_times().unwrap();
        assert_eq!(layers.iter().map(|(_, ns)| ns).sum::<u64>(), total);
        assert_eq!(total, s.busy_ns(root));
        let mem = layers.iter().find(|(l, _)| *l == Layer::Mem).unwrap().1;
        assert_eq!(mem, 1);
    }

    /// A child busy for longer than its parent is an error, not a
    /// clamped self time.
    #[test]
    fn a_child_busier_than_its_parent_is_an_error() {
        let mut s = Spans::new();
        let t0 = Instant::now();
        let root = s.open("pass", Layer::Bench, None);
        let agg = s.aggregate("step", Layer::Core, root);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(root);
        s.add(agg, t0, Instant::now());
        let err = s.self_times().unwrap_err();
        assert!(err.contains("pass"), "{err}");
    }
}
