//! Memory-side design parameters (the paper's Table III).
//!
//! The published Table III is garbled in the available text, so the twelve
//! parameters here are reconstructed from the parameters the paper's
//! figures and prose name explicitly — L1-Latency, L1-Clock, L2-Size,
//! RAM-Latency, Cache-Line-Width, plus cache clock speeds and sizes — and
//! their natural completions (associativities, RAM clock, prefetch depth),
//! so that core (18) + memory (12) equals the paper's stated "thirty
//! variable input features".

/// Fixed core clock frequency in GHz (matches a ThunderX2-class part; the
/// paper varies cache/RAM clocks relative to a fixed core).
pub(crate) const CORE_CLOCK_GHZ: f64 = 2.5;

/// Memory-hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemParams {
    /// Cache line width in bytes (uniform across levels, as in SST configs).
    pub line_bytes: u32,
    /// L1 data cache capacity in KiB.
    pub l1_size_kib: u32,
    /// L1 associativity (ways).
    pub l1_assoc: u32,
    /// L1 hit latency in *L1-domain* cycles.
    pub l1_latency: u32,
    /// L1 clock in GHz.
    pub l1_clock_ghz: f64,
    /// L2 cache capacity in KiB.
    pub l2_size_kib: u32,
    /// L2 associativity (ways).
    pub l2_assoc: u32,
    /// L2 hit latency in *L2-domain* cycles.
    pub l2_latency: u32,
    /// L2 clock in GHz.
    pub l2_clock_ghz: f64,
    /// DRAM access time in nanoseconds.
    pub ram_access_ns: f64,
    /// DRAM interface clock in GHz (scales the line transfer time).
    pub ram_clock_ghz: f64,
    /// Next-line prefetch depth in lines (0 disables prefetching).
    pub prefetch_depth: u32,
}

impl MemParams {
    /// A ThunderX2-like baseline (32 KiB 8-way L1, 256 KiB 8-way L2,
    /// 64-byte lines), used for the Table I validation experiment.
    pub fn thunderx2() -> MemParams {
        MemParams {
            line_bytes: 64,
            l1_size_kib: 32,
            l1_assoc: 8,
            l1_latency: 4,
            l1_clock_ghz: CORE_CLOCK_GHZ,
            l2_size_kib: 256,
            l2_assoc: 8,
            l2_latency: 9,
            l2_clock_ghz: CORE_CLOCK_GHZ,
            ram_access_ns: 85.0,
            ram_clock_ghz: 1.2,
            prefetch_depth: 1,
        }
    }

    /// Check structural invariants (power-of-two geometry, L2 strictly
    /// larger and slower in wall-clock terms than L1 — the paper's sampling
    /// constraints) and the machine's bounds on cache sizes and prefetch
    /// depth.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 8 {
            return Err(format!(
                "line_bytes {} must be a power of two >= 8",
                self.line_bytes
            ));
        }
        // The machine's bounds, past Table III's 128 KiB, 8 MiB and 4: a
        // cache's size sets its tag arrays, the depth a per-miss loop.
        for (name, v, max) in [
            ("l1_size_kib", self.l1_size_kib, 1024),
            ("l2_size_kib", self.l2_size_kib, 16384),
            ("prefetch_depth", self.prefetch_depth, 64),
        ] {
            if v > max {
                return Err(format!("{name} {v} above maximum {max}"));
            }
        }
        for (name, size, assoc) in [
            ("L1", self.l1_size_kib, self.l1_assoc),
            ("L2", self.l2_size_kib, self.l2_assoc),
        ] {
            let lines = size as u64 * 1024 / u64::from(self.line_bytes);
            if lines == 0 || !lines.is_multiple_of(u64::from(assoc)) {
                return Err(format!(
                    "{name}: {size} KiB not divisible into {assoc}-way sets"
                ));
            }
            let sets = lines / u64::from(assoc);
            if !sets.is_power_of_two() {
                return Err(format!("{name}: set count {sets} not a power of two"));
            }
        }
        if self.l2_size_kib <= self.l1_size_kib {
            return Err("L2 must be larger than L1".into());
        }
        if self.l2_hit_ns() <= self.l1_hit_ns() {
            return Err("L2 must have higher latency than L1".into());
        }
        for (name, v) in [
            ("l1_clock_ghz", self.l1_clock_ghz),
            ("l2_clock_ghz", self.l2_clock_ghz),
            ("ram_clock_ghz", self.ram_clock_ghz),
            ("ram_access_ns", self.ram_access_ns),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.l1_latency == 0 || self.l2_latency == 0 {
            return Err("cache latencies must be >= 1 cycle".into());
        }
        Ok(())
    }

    /// L1 hit latency in nanoseconds.
    #[inline]
    pub fn l1_hit_ns(&self) -> f64 {
        self.l1_latency as f64 / self.l1_clock_ghz
    }

    /// L2 hit latency in nanoseconds (the L2 tag+data time itself, not
    /// including the L1 miss detection).
    #[inline]
    pub fn l2_hit_ns(&self) -> f64 {
        self.l2_latency as f64 / self.l2_clock_ghz
    }

    /// L1 hit latency in core cycles (≥ 1).
    #[inline]
    pub(crate) fn l1_hit_core_cycles(&self) -> u64 {
        ns_to_core_cycles(self.l1_hit_ns())
    }

    /// Additional core cycles for an L1-miss/L2-hit beyond the L1 probe.
    #[inline]
    pub(crate) fn l2_hit_core_cycles(&self) -> u64 {
        ns_to_core_cycles(self.l2_hit_ns())
    }

    /// DRAM access latency in core cycles, including the line transfer time
    /// over the DRAM interface (`line_bytes / 8` beats at `ram_clock_ghz`,
    /// 8-byte interface) — this is where a faster RAM clock raises
    /// effective memory bandwidth.
    #[inline]
    pub(crate) fn ram_core_cycles(&self) -> u64 {
        let beats = f64::from(self.line_bytes) / 8.0;
        let transfer_ns = beats / self.ram_clock_ghz;
        ns_to_core_cycles(self.ram_access_ns + transfer_ns)
    }

    /// Number of sets in L2.
    #[cfg(test)]
    pub(crate) fn l2_sets(&self) -> u32 {
        self.l2_size_kib * 1024 / self.line_bytes / self.l2_assoc
    }
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams::thunderx2()
    }
}

/// Convert nanoseconds to core cycles, rounding up, minimum one cycle.
#[inline]
pub(crate) fn ns_to_core_cycles(ns: f64) -> u64 {
    ((ns * CORE_CLOCK_GHZ).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        MemParams::thunderx2().validate().unwrap();
    }

    #[test]
    fn latency_ordering_core_cycles() {
        let p = MemParams::thunderx2();
        assert!(p.l1_hit_core_cycles() >= 1);
        assert!(p.l2_hit_core_cycles() > 0);
        assert!(p.ram_core_cycles() > p.l2_hit_core_cycles());
    }

    #[test]
    fn baseline_l1_is_four_core_cycles() {
        // L1 at core clock with latency 4 → exactly 4 core cycles.
        assert_eq!(MemParams::thunderx2().l1_hit_core_cycles(), 4);
    }

    #[test]
    fn slow_l1_clock_raises_core_cycle_latency() {
        let mut p = MemParams::thunderx2();
        let base = p.l1_hit_core_cycles();
        p.l1_clock_ghz = 1.0;
        assert!(p.l1_hit_core_cycles() > base);
    }

    #[test]
    fn wider_line_costs_more_ram_transfer() {
        let mut p = MemParams::thunderx2();
        let narrow = p.ram_core_cycles();
        p.line_bytes = 256;
        assert!(p.ram_core_cycles() > narrow);
    }

    #[test]
    fn validate_rejects_l2_not_larger() {
        let mut p = MemParams::thunderx2();
        p.l2_size_kib = 32;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_l2_faster_than_l1() {
        let mut p = MemParams::thunderx2();
        p.l2_latency = 1;
        p.l2_clock_ghz = 4.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_pow2_sets() {
        let mut p = MemParams::thunderx2();
        p.l1_size_kib = 24; // 24 KiB / 64B / 8-way = 48 sets, not pow2
        assert!(p.validate().is_err());
    }

    /// Each parameter that sizes an allocation or a per-miss loop
    /// validates at its bound and is refused one past it.
    #[test]
    fn allocation_sizes_are_bounded() {
        let base = MemParams {
            l2_size_kib: 2048,
            ..MemParams::thunderx2()
        };
        type Field = fn(&mut MemParams) -> &mut u32;
        let fields: [(&str, Field, u32); 3] = [
            ("l1_size_kib", |p| &mut p.l1_size_kib, 1024),
            ("l2_size_kib", |p| &mut p.l2_size_kib, 16384),
            ("prefetch_depth", |p| &mut p.prefetch_depth, 64),
        ];
        for (name, field, bound) in fields {
            let mut p = base;
            *field(&mut p) = bound;
            p.validate()
                .unwrap_or_else(|e| panic!("{name} at its bound: {e}"));
            *field(&mut p) = bound + 1;
            let err = p.validate().expect_err(name);
            assert!(
                err.contains(&format!("above maximum {bound}")),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn set_counts() {
        let p = MemParams::thunderx2();
        assert_eq!(p.l2_sets(), 512);
    }

    #[test]
    fn ns_conversion_rounds_up_and_floors_at_one() {
        assert_eq!(ns_to_core_cycles(0.01), 1);
        assert_eq!(ns_to_core_cycles(1.0), 3); // 2.5 cycles → 3
        assert_eq!(ns_to_core_cycles(10.0), 25);
    }
}
