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

/// The largest physical register file (per class), ROB, load queue and
/// store queue the machine builds: each sizes an allocation when a
/// pipeline is made. Table II stops at 512; the headroom admits listed
/// points past the sampled space.
pub(crate) const MAX_STRUCTURE: u32 = 4096;

/// The eighteen core parameters varied by the study (Table II; the
/// sampled values are `armdse_core`'s parameter table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreParams {
    /// SVE vector length in bits (a power of two in 128..=2048).
    pub vector_length: u32,
    /// Fetch block size in bytes (a power of two).
    pub fetch_block_bytes: u32,
    /// Loop buffer size in instructions.
    pub loop_buffer_size: u32,
    /// Physical general-purpose registers.
    pub gp_regs: u32,
    /// Physical FP/SVE registers.
    pub fp_regs: u32,
    /// Physical predicate registers.
    pub pred_regs: u32,
    /// Physical condition (NZCV) registers.
    pub cond_regs: u32,
    /// Commit pipeline width in instructions per cycle.
    pub commit_width: u32,
    /// Frontend (decode/rename) pipeline width in instructions per cycle.
    pub frontend_width: u32,
    /// Load-store-queue completion pipeline width per cycle.
    pub lsq_completion_width: u32,
    /// Reorder buffer entries.
    pub rob_size: u32,
    /// Load queue entries.
    pub load_queue: u32,
    /// Store queue entries.
    pub store_queue: u32,
    /// L1→core load bandwidth in bytes per cycle.
    pub load_bandwidth: u32,
    /// Core→L1 store bandwidth in bytes per cycle.
    pub store_bandwidth: u32,
    /// Permitted memory requests per cycle (shared by loads and stores;
    /// a request is one cache-line access).
    pub mem_requests_per_cycle: u32,
    /// Permitted load requests per cycle.
    pub loads_per_cycle: u32,
    /// Permitted store requests per cycle.
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
    /// at least data as large as the vector length"), and the machine's
    /// bound on register files, the ROB and the load/store queues.
    pub fn validate(&self) -> Result<(), String> {
        let vl_bytes = self.vector_length / 8;
        let regs = |class: RegClass| u32::from(class.arch_count()) + 2..=MAX_STRUCTURE;
        let any = || 1..=u32::MAX;
        for (name, v, admitted) in [
            ("vector_length", self.vector_length, 128..=2048),
            ("fetch_block_bytes", self.fetch_block_bytes, 4..=u32::MAX),
            ("load_bandwidth", self.load_bandwidth, vl_bytes..=u32::MAX),
            ("store_bandwidth", self.store_bandwidth, vl_bytes..=u32::MAX),
            ("gp_regs", self.gp_regs, regs(RegClass::Gp)),
            ("fp_regs", self.fp_regs, regs(RegClass::Fp)),
            ("pred_regs", self.pred_regs, regs(RegClass::Pred)),
            ("cond_regs", self.cond_regs, regs(RegClass::Cond)),
            ("commit_width", self.commit_width, any()),
            ("frontend_width", self.frontend_width, any()),
            ("lsq_completion_width", self.lsq_completion_width, any()),
            ("rob_size", self.rob_size, 8..=MAX_STRUCTURE),
            ("load_queue", self.load_queue, 4..=MAX_STRUCTURE),
            ("store_queue", self.store_queue, 4..=MAX_STRUCTURE),
            ("loop_buffer_size", self.loop_buffer_size, any()),
            ("mem_requests_per_cycle", self.mem_requests_per_cycle, any()),
            ("loads_per_cycle", self.loads_per_cycle, any()),
            ("stores_per_cycle", self.stores_per_cycle, any()),
        ] {
            if !admitted.contains(&v) {
                return Err(format!("{name} {v} outside {admitted:?}"));
            }
        }
        if !(self.vector_length.is_power_of_two() && self.fetch_block_bytes.is_power_of_two()) {
            return Err("vector_length and fetch_block_bytes must be powers of two".into());
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

    /// Each parameter that sizes an allocation validates at its bound
    /// and is refused one past it.
    #[test]
    fn allocation_sizes_are_bounded() {
        type Field = fn(&mut CoreParams) -> &mut u32;
        let fields: [(&str, Field); 7] = [
            ("gp_regs", |p| &mut p.gp_regs),
            ("fp_regs", |p| &mut p.fp_regs),
            ("pred_regs", |p| &mut p.pred_regs),
            ("cond_regs", |p| &mut p.cond_regs),
            ("rob_size", |p| &mut p.rob_size),
            ("load_queue", |p| &mut p.load_queue),
            ("store_queue", |p| &mut p.store_queue),
        ];
        for (name, field) in fields {
            let mut p = CoreParams::thunderx2();
            *field(&mut p) = MAX_STRUCTURE;
            p.validate()
                .unwrap_or_else(|e| panic!("{name} at its bound: {e}"));
            *field(&mut p) = MAX_STRUCTURE + 1;
            let err = p.validate().expect_err(name);
            assert!(
                err.contains("outside") && err.contains("..=4096"),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn rejects_tiny_rob() {
        let mut p = CoreParams::thunderx2();
        p.rob_size = 4;
        assert!(p.validate().is_err());
    }
}
