//! Simulation statistics returned by the core model.

use armdse_isa::reg::RegClass;
use armdse_isa::OpSummary;
use armdse_memsim::MemStats;

/// Frontend/backend stall attribution counters (cycles in which the given
/// resource was the blocking reason at its pipeline stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallStats {
    /// Rename blocked: GP free list empty.
    pub rename_gp: u64,
    /// Rename blocked: FP/SVE free list empty.
    pub rename_fp: u64,
    /// Rename blocked: predicate free list empty.
    pub rename_pred: u64,
    /// Rename blocked: condition free list empty.
    pub rename_cond: u64,
    /// Dispatch blocked: reorder buffer full.
    pub rob_full: u64,
    /// Dispatch blocked: reservation station full.
    pub rs_full: u64,
    /// Dispatch blocked: load queue full.
    pub lq_full: u64,
    /// Dispatch blocked: store queue full.
    pub sq_full: u64,
    /// Decode starved: fetch queue empty.
    pub fetch_starved: u64,
    /// Cycles fetched from the loop buffer.
    pub loop_buffer_cycles: u64,
}

impl StallStats {
    /// The rename-stall counter of `class`'s free list.
    pub(crate) fn rename_mut(&mut self, class: RegClass) -> &mut u64 {
        match class {
            RegClass::Gp => &mut self.rename_gp,
            RegClass::Fp => &mut self.rename_fp,
            RegClass::Pred => &mut self.rename_pred,
            RegClass::Cond => &mut self.rename_cond,
        }
    }
}

/// Full result of simulating one workload on one configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated core cycles (the paper's target variable).
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Observed per-class retirement summary.
    pub observed: OpSummary,
    /// Memory hierarchy counters.
    pub mem: MemStats,
    /// Stall attribution.
    pub stalls: StallStats,
    /// Whether the observed summary matched the workload's analytic
    /// summary (the stand-in for the apps' built-in output validation;
    /// the paper only keeps validated runs).
    pub validated: bool,
    /// Whether the cycle-limit safety valve fired (run must be discarded).
    pub hit_cycle_limit: bool,
}

impl SimStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.retired as f64 / self.cycles as f64
    }

    /// Fraction of retired instructions that are SVE vector instructions
    /// (paper Fig. 1 metric).
    pub fn sve_fraction(&self) -> f64 {
        self.observed.sve_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_when_no_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_computed() {
        let s = SimStats {
            cycles: 100,
            retired: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }
}
