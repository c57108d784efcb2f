//! Core timing-model configuration and the paper's machine presets.

use xt_mem::MemConfig;

/// Every structural parameter of the core models. Defaults are the
/// XT-910 values from the paper (§II, §IV).
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Human-readable machine name (for reports).
    pub name: &'static str,
    /// Fetch width in bytes per cycle (128-bit line, §III).
    pub fetch_bytes: u64,
    /// Instruction-buffer (IBUF) capacity in instructions.
    pub ibuf_entries: usize,
    /// Decode width (3 on XT-910).
    pub decode_width: u64,
    /// Rename width in µops (4 on XT-910).
    pub rename_width: u64,
    /// Out-of-order issue width — "the out-of-order issue engine can
    /// issue up to 8 instructions" (§II).
    pub issue_width: u64,
    /// Retire width per cycle.
    pub retire_width: u64,
    /// Re-order buffer capacity (192, §IV).
    pub rob_entries: usize,
    /// Load-queue entries.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Unified issue-queue capacity (instruction slots feeding the pipes).
    pub iq_entries: usize,
    /// Physical integer registers beyond the 32 architectural.
    pub phys_int: usize,
    /// Physical FP registers beyond architectural.
    pub phys_fp: usize,
    /// Physical vector registers beyond architectural.
    pub phys_vec: usize,
    /// Number of single-cycle ALU pipes (2).
    pub alu_pipes: usize,
    /// Number of scalar FP / vector pipes (2).
    pub fp_pipes: usize,
    /// Number of vector execution pipes (2, sharing the FP slots).
    pub vec_pipes: usize,
    /// Branch mispredict redirect penalty in cycles (front-end refill
    /// after resolution in the branch-jump unit; ≥7 per §III-A).
    pub mispredict_penalty: u64,
    /// Pipeline flush penalty (memory-order violation, exception).
    pub flush_penalty: u64,
    /// Taken-branch bubble when the target comes from the IP stage
    /// (hidden by the IBUF when it holds instructions).
    pub ip_jump_bubble: u64,
    /// Latencies.
    pub lat: Latencies,
    /// Enable the 16-entry loop buffer (§III-C). Ablation switch.
    pub loop_buffer: bool,
    /// Enable the L0 BTB (zero-bubble taken branches at IF). Ablation.
    pub l0_btb: bool,
    /// Enable the two-level prediction-value prefetch buffers (Fig. 6):
    /// when off, back-to-back branches predict with stale history.
    pub two_level_buf: bool,
    /// Enable the pseudo-double-store decomposition (§V-B). Ablation.
    pub split_stores: bool,
    /// Enable the memory-dependence predictor (§V-A). Ablation.
    pub mem_dep_predict: bool,
    /// Dual-issue LSU: one load + one store per cycle (§V-A). When off,
    /// a single AGU is shared. Ablation.
    pub dual_issue_lsu: bool,
    /// Memory-system configuration a [`crate::Session`] is usually built
    /// with (`Session::new(prog, &cfg, cfg.mem, max_insts)`).
    pub mem: MemConfig,
}

/// Execution latencies in cycles.
#[derive(Clone, Copy, Debug)]
pub struct Latencies {
    /// Single-cycle ALU.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide (fixed-cost model).
    pub div: u64,
    /// Scalar FP add.
    pub fadd: u64,
    /// Scalar FP multiply / FMA.
    pub fmul: u64,
    /// Scalar FP divide.
    pub fdiv: u64,
    /// FP<->int conversions and moves.
    pub fcvt: u64,
    /// Vector integer ALU (3-4 per §VII; we use 3).
    pub valu: u64,
    /// Vector integer multiply / MAC.
    pub vmul: u64,
    /// Vector FP multiply ("multiplying single and double precision
    /// floating point vectors takes 5 clock cycles", §VII).
    pub vfmul: u64,
    /// Vector divide, min..max of the 6-25 range; we use the midpoint.
    pub vdiv: u64,
    /// Vector permutation / reduction (crosses slices).
    pub vperm: u64,
    /// CSR access (serializing).
    pub csr: u64,
    /// Address-generation stage of the LSU.
    pub agu: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            alu: 1,
            mul: 3,
            div: 20,
            fadd: 3,
            fmul: 4,
            fdiv: 12,
            fcvt: 2,
            valu: 3,
            vmul: 4,
            vfmul: 5,
            vdiv: 15,
            vperm: 4,
            csr: 4,
            agu: 1,
        }
    }
}

impl CoreConfig {
    /// The XT-910 as described in the paper.
    pub fn xt910() -> Self {
        CoreConfig {
            name: "XT-910",
            fetch_bytes: 16,
            ibuf_entries: 32,
            decode_width: 3,
            rename_width: 4,
            issue_width: 8,
            retire_width: 4,
            rob_entries: 192,
            lq_entries: 32,
            sq_entries: 24,
            iq_entries: 48,
            phys_int: 96,
            phys_fp: 64,
            phys_vec: 64,
            alu_pipes: 2,
            fp_pipes: 2,
            vec_pipes: 2,
            mispredict_penalty: 7,
            flush_penalty: 12,
            ip_jump_bubble: 1,
            lat: Latencies::default(),
            loop_buffer: true,
            l0_btb: true,
            two_level_buf: true,
            split_stores: true,
            mem_dep_predict: true,
            dual_issue_lsu: true,
            mem: MemConfig::default(),
        }
    }

    /// A Cortex-A73-class reference machine: 2-wide decode out-of-order,
    /// comparable caches (64 KiB L1s, 2 MiB L2 — §X), no RISC-V custom
    /// extensions or loop buffer. Used as the normalization baseline of
    /// Figs. 18/19.
    pub fn a73_like() -> Self {
        CoreConfig {
            name: "A73-like reference",
            decode_width: 2,
            rename_width: 3,
            issue_width: 6,
            retire_width: 3,
            rob_entries: 128,
            lq_entries: 24,
            sq_entries: 16,
            iq_entries: 40,
            phys_int: 80,
            phys_fp: 64,
            mispredict_penalty: 8,
            loop_buffer: false,
            l0_btb: true,
            split_stores: false,
            ..Self::xt910()
        }
    }

    /// A SiFive-U74-class dual-issue in-order machine (Fig. 17 baseline).
    /// Use with [`crate::InOrderCore`].
    pub fn u74_like() -> Self {
        CoreConfig {
            name: "U74-like in-order",
            fetch_bytes: 8,
            decode_width: 2,
            rename_width: 2,
            issue_width: 2,
            retire_width: 2,
            rob_entries: 8, // nominal; the in-order model ignores it
            mispredict_penalty: 5,
            loop_buffer: false,
            l0_btb: false,
            two_level_buf: false,
            split_stores: false,
            mem_dep_predict: false,
            dual_issue_lsu: false,
            ..Self::xt910()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_follow_paper_parameters() {
        let x = CoreConfig::xt910();
        assert_eq!(x.decode_width, 3);
        assert_eq!(x.rename_width, 4);
        assert_eq!(x.issue_width, 8);
        assert_eq!(x.rob_entries, 192);
        assert!(x.mispredict_penalty >= 7, "§III-A: at least 7 cycles");
        assert_eq!(x.lat.vfmul, 5, "§VII: FP vector multiply 5 cycles");
        assert!((6..=25).contains(&x.lat.vdiv));
    }

    #[test]
    fn baselines_are_narrower() {
        let x = CoreConfig::xt910();
        let a = CoreConfig::a73_like();
        let u = CoreConfig::u74_like();
        assert!(a.decode_width < x.decode_width);
        assert!(u.issue_width < a.issue_width);
        assert!(!u.loop_buffer && !u.split_stores);
    }
}
