//! Operation accounting and the simulation digest.
//!
//! An operation is one kernel×machine job, one `memwalk` part, one
//! `cluster4` segment between checkpoints, or one `observe`
//! render+reconcile. It fails when its check returns an error or when it
//! panics; both count against `failed`.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed to stderr at the end of the run.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Runs one operation. `f` returns its result or the reason it
    /// failed; a panic inside `f` is caught and counted as a failure.
    pub fn op<T>(&mut self, name: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(why)) => {
                self.fail(name, &why);
                None
            }
            Err(panic) => {
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                self.fail(name, &format!("panicked: {why}"));
                None
            }
        }
    }

    /// Records that an already attempted operation failed a later check.
    pub fn fail(&mut self, name: &str, why: &str) {
        self.failed += 1;
        self.failures.push(format!("{name}: {why}"));
    }
}

/// Fails unless the guest exit code is the host's expectation.
pub fn check_exit(got: Option<u64>, want: u64) -> Result<(), String> {
    match got {
        Some(g) if g == want => Ok(()),
        Some(g) => Err(format!("exit code {g:#x}, expected {want:#x}")),
        None => Err(format!("guest did not halt, expected exit code {want:#x}")),
    }
}

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds every field of `v` through its `Debug` rendering, so a
    /// counter added to a report later is covered without listing it.
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.bytes(bytes);
        h.0
    }
}

/// Digest of every counter of a single-core run report.
pub fn run_digest(r: &xt_core::RunReport) -> u64 {
    let mut h = Fnv::default();
    h.debug(&(r.machine, &r.perf, &r.mem, r.exit_code));
    h.0
}

/// Digest of every simulated counter of a cluster report (the engine's
/// host nanoseconds and the optional traces are measurements, not
/// counters).
pub fn cluster_digest(r: &xt_soc::ClusterReport) -> u64 {
    let mut h = Fnv::default();
    h.debug(&(&r.cores, &r.mem, &r.exit_codes));
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_both_count_as_failures() {
        let mut l = Ledger::default();
        assert_eq!(l.op("ok", || Ok(1)), Some(1));
        assert_eq!(l.op("err", || Err::<(), _>("no".into())), None);
        assert_eq!(
            l.op("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((l.attempted, l.failed), (3, 2));
        assert!(l.failures[1].contains("boom"));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a"
        assert_eq!(Fnv::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
