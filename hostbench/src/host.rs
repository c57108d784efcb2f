//! Host-speed calibration.
//!
//! The machines this benchmark runs on share their cores with other
//! tenants, and their effective speed moves by ±30% within seconds. A
//! fixed probe loop, independent of every simulator crate, is timed at
//! window boundaries at least every [`PROBE_EVERY`]; each timed window is
//! then scaled by the probe rates around it relative to
//! [`NOMINAL_RATE`], raised to [`SENSITIVITY`]. Background contention
//! slows the probe and the simulator alike and largely cancels, while a
//! change to the simulator moves only the simulator's side.
//!
//! The probe does what the simulator's bookkeeping does most: small
//! hash-map and ordered-map updates. Of four candidate probes (this one,
//! a 2 MiB random-access table, an L1-resident integer loop and a
//! memcpy), it tracked the simulator's speed most closely on a shared
//! 2-vCPU host: the simulator-to-probe ratio varied by ±2.4% between
//! 10-second blocks while the raw simulator rate varied by ±19%.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Probe iterations per second (millions) that define the nominal host:
/// a typical probe rate on the shared 2.0 GHz Xeon vCPUs the benchmark
/// was tuned on, so there the normalised figures read close to the raw
/// ones.
pub const NOMINAL_RATE: f64 = 7.0;
/// How much more the simulator slows than the probe when the host is
/// contended: each window is scaled by the probe's slowdown raised to
/// this power. Regressing log simulator rate on log probe rate pass by
/// pass, over about 45 ten-second runs per workload on a shared 2-vCPU
/// host, gave slopes of 1.1 to 1.5 for `kernels` and `memwalk` and 0.6 to
/// 1.2 for `cluster4` and `observe`. Across those runs 1.2 gave the
/// smallest worst-case spread of the per-run medians.
const SENSITIVITY: f64 = 1.2;
/// Iterations per probe (about 10 ms on the nominal host).
const ITERS: u64 = 70_000;
/// Keys drawn, and entries the ordered map is trimmed to.
const KEYS: u64 = 4096;
const ORDERED: usize = 1024;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>>;

/// The probe's maps, kept between probes.
pub struct Probe {
    hashed: FixedMap,
    ordered: BTreeMap<u64, u64>,
}

impl Probe {
    pub fn new() -> Self {
        let mut p = Probe {
            hashed: FixedMap::default(),
            ordered: BTreeMap::new(),
        };
        p.rate();
        p
    }

    /// Runs the probe once; returns million iterations per second.
    pub fn rate(&mut self) -> f64 {
        self.hashed.clear();
        self.ordered.clear();
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % KEYS;
            *self.hashed.entry(k).or_insert(0) += 1;
            self.ordered.insert(k, i);
            if self.ordered.len() > ORDERED {
                self.ordered.pop_first();
            }
            acc = acc.wrapping_add(self.hashed[&k]);
        }
        std::hint::black_box(acc.wrapping_add(self.ordered.len() as u64));
        ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
    }

    /// Speed of the host relative to the nominal one, from the probes
    /// run just before and after an interval.
    pub fn factor(before: f64, after: f64) -> f64 {
        ((before + after) / 2.0 / NOMINAL_RATE).powf(SENSITIVITY)
    }
}

/// Probe at the first window boundary after this long without one.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Accumulates the timed windows of a pass, in raw and in normalised
/// nanoseconds. With a probe, it probes at window boundaries at least
/// every [`PROBE_EVERY`] and scales each window by the mean rate of the
/// probes around it; without one (traced runs, tests) both sums are raw.
pub struct Clock<'p> {
    probe: Option<&'p mut Probe>,
    last_rate: f64,
    last_probe: Instant,
    pending_ns: u64,
    raw_ns: u64,
    norm_ns: f64,
}

impl<'p> Clock<'p> {
    pub fn probed(probe: &'p mut Probe) -> Self {
        let last_rate = probe.rate();
        Clock {
            probe: Some(probe),
            last_rate,
            last_probe: Instant::now(),
            pending_ns: 0,
            raw_ns: 0,
            norm_ns: 0.0,
        }
    }

    pub fn raw() -> Clock<'static> {
        Clock {
            probe: None,
            last_rate: NOMINAL_RATE,
            last_probe: Instant::now(),
            pending_ns: 0,
            raw_ns: 0,
            norm_ns: 0.0,
        }
    }

    /// Times `f` as one window.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.time_ns(f).0
    }

    /// Times `f` as one window; also returns the window's raw length.
    pub fn time_ns<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.settle();
        }
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.pending_ns += ns;
        (r, ns)
    }

    /// Probes now and folds the windows since the last probe into the
    /// sums.
    fn settle(&mut self) {
        let rate = match self.probe.as_deref_mut() {
            Some(p) => p.rate(),
            None => NOMINAL_RATE,
        };
        self.norm_ns += self.pending_ns as f64 * Probe::factor(self.last_rate, rate);
        self.raw_ns += self.pending_ns;
        self.pending_ns = 0;
        self.last_rate = rate;
        self.last_probe = Instant::now();
    }

    /// Closes the last windows; returns (raw, normalised) nanoseconds.
    pub fn finish(mut self) -> (u64, f64) {
        if self.pending_ns > 0 {
            self.settle();
        }
        (self.raw_ns, self.norm_ns)
    }
}
