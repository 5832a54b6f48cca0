//! Core-side design parameters (the paper's Table II) and fixed
//! structural constants (§V-A).

use armdse_isa::reg::RegClass;

/// Unified reservation-station capacity (fixed, paper §V-A: "a single
/// unified reservation station shared between them with a width of 60").
pub(crate) const RS_SIZE: usize = 60;

/// Dispatch rate into the reservation station (fixed, paper §V-A:
/// "a dispatch rate of four instructions per cycle").
pub(crate) const DISPATCH_RATE: usize = 4;

/// Fetch-buffer capacity in instructions (fixed frontend plumbing).
pub(crate) const FETCH_QUEUE_CAP: usize = 64;

/// Rename-buffer capacity in instructions (between rename and dispatch).
pub(crate) const RENAME_BUFFER_CAP: usize = 16;

/// Minimum store-to-load forwarding latency in cycles; the actual
/// forwarding latency is the L1 hit latency (forwarded loads re-use the
/// L1 access path, as in SimEng's LSQ), floored at this value.
pub(crate) const MIN_FORWARD_LATENCY: u64 = 2;

/// The eighteen core parameters varied by the study (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// SVE vector length in bits {128..2048, powers of 2}.
    pub vector_length: u32,
    /// Fetch block size in bytes {4..2048, powers of 2}.
    pub fetch_block_bytes: u32,
    /// Loop buffer size in instructions {1..512}.
    pub loop_buffer_size: u32,
    /// Physical general-purpose registers {38, 40..512 step 8}.
    pub gp_regs: u32,
    /// Physical FP/SVE registers {38, 40..512 step 8}.
    pub fp_regs: u32,
    /// Physical predicate registers {24..512 step 8}.
    pub pred_regs: u32,
    /// Physical condition (NZCV) registers {8..512 step 8}.
    pub cond_regs: u32,
    /// Commit pipeline width {1..64}.
    pub commit_width: u32,
    /// Frontend (decode/rename) pipeline width {1..64}.
    pub frontend_width: u32,
    /// Load-store-queue completion pipeline width {1..64}.
    pub lsq_completion_width: u32,
    /// Reorder buffer size {8..512 step 4}.
    pub rob_size: u32,
    /// Load queue size {4..512 step 4}.
    pub load_queue: u32,
    /// Store queue size {4..512 step 4}.
    pub store_queue: u32,
    /// L1→core load bandwidth in bytes per cycle {16..1024, powers of 2}.
    pub load_bandwidth: u32,
    /// Core→L1 store bandwidth in bytes per cycle {16..1024, powers of 2}.
    pub store_bandwidth: u32,
    /// Permitted memory requests per cycle {1..32} (shared by loads and
    /// stores; a request is one cache-line access).
    pub mem_requests_per_cycle: u32,
    /// Permitted load requests per cycle {1..32}.
    pub loads_per_cycle: u32,
    /// Permitted store requests per cycle {1..32}.
    pub stores_per_cycle: u32,
}

impl CoreParams {
    /// A ThunderX2-like baseline configuration (the paper's §IV-B
    /// validation anchor: an out-of-order superscalar Armv8 core, with SVE
    /// support grafted on as the paper does by modifying the execution
    /// units).
    pub fn thunderx2() -> CoreParams {
        CoreParams {
            vector_length: 128,
            fetch_block_bytes: 32,
            loop_buffer_size: 32,
            gp_regs: 128,
            fp_regs: 128,
            pred_regs: 48,
            cond_regs: 32,
            commit_width: 4,
            frontend_width: 4,
            lsq_completion_width: 2,
            rob_size: 180,
            load_queue: 64,
            store_queue: 36,
            load_bandwidth: 32,
            store_bandwidth: 16,
            mem_requests_per_cycle: 2,
            loads_per_cycle: 2,
            stores_per_cycle: 1,
        }
    }

    /// Physical register count for a class.
    #[inline]
    pub(crate) fn phys_regs(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Gp => self.gp_regs,
            RegClass::Fp => self.fp_regs,
            RegClass::Pred => self.pred_regs,
            RegClass::Cond => self.cond_regs,
        }
    }

    /// Check structural invariants, including the paper's sampling
    /// constraint that load/store bandwidth covers one full vector
    /// ("Load and Store Bandwidths must be large enough to load and store
    /// at least data as large as the vector length").
    pub fn validate(&self) -> Result<(), String> {
        if !self.vector_length.is_power_of_two() || !(128..=2048).contains(&self.vector_length) {
            return Err(format!("vector_length {} invalid", self.vector_length));
        }
        if !self.fetch_block_bytes.is_power_of_two() || self.fetch_block_bytes < 4 {
            return Err(format!(
                "fetch_block_bytes {} invalid",
                self.fetch_block_bytes
            ));
        }
        let vl_bytes = self.vector_length / 8;
        if self.load_bandwidth < vl_bytes {
            return Err(format!(
                "load_bandwidth {} < vector bytes {vl_bytes}",
                self.load_bandwidth
            ));
        }
        if self.store_bandwidth < vl_bytes {
            return Err(format!(
                "store_bandwidth {} < vector bytes {vl_bytes}",
                self.store_bandwidth
            ));
        }
        for class in RegClass::ALL {
            let need = u32::from(class.arch_count()) + 2;
            if self.phys_regs(class) < need {
                return Err(format!(
                    "{} physical registers {} below architectural minimum {need}",
                    class.tag(),
                    self.phys_regs(class)
                ));
            }
        }
        for (name, v, lo) in [
            ("commit_width", self.commit_width, 1),
            ("frontend_width", self.frontend_width, 1),
            ("lsq_completion_width", self.lsq_completion_width, 1),
            ("rob_size", self.rob_size, 8),
            ("load_queue", self.load_queue, 4),
            ("store_queue", self.store_queue, 4),
            ("loop_buffer_size", self.loop_buffer_size, 1),
            ("mem_requests_per_cycle", self.mem_requests_per_cycle, 1),
            ("loads_per_cycle", self.loads_per_cycle, 1),
            ("stores_per_cycle", self.stores_per_cycle, 1),
        ] {
            if v < lo {
                return Err(format!("{name} {v} below minimum {lo}"));
            }
        }
        Ok(())
    }
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams::thunderx2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        CoreParams::thunderx2().validate().unwrap();
    }

    #[test]
    fn bandwidth_must_cover_vector() {
        let mut p = CoreParams::thunderx2();
        p.vector_length = 2048;
        assert!(p.validate().is_err());
        p.load_bandwidth = 256;
        p.store_bandwidth = 256;
        p.validate().unwrap();
    }

    #[test]
    fn register_floors_enforced() {
        let mut p = CoreParams::thunderx2();
        p.gp_regs = 30;
        assert!(p.validate().is_err());
        let mut p = CoreParams::thunderx2();
        p.pred_regs = 16;
        assert!(p.validate().is_err());
    }

    #[test]
    fn phys_regs_lookup() {
        let p = CoreParams::thunderx2();
        assert_eq!(p.phys_regs(RegClass::Gp), 128);
        assert_eq!(p.phys_regs(RegClass::Cond), 32);
    }

    #[test]
    fn rejects_tiny_rob() {
        let mut p = CoreParams::thunderx2();
        p.rob_size = 4;
        assert!(p.validate().is_err());
    }
}
