//! The paper's parameter space (Tables II + III) and its constrained
//! uniform sampler.
//!
//! "For each run through our set of benchmarks, a new set of parameters is
//! generated across a continuous uniform distribution. All parameters are
//! independently generated, with the exception of Load and Store
//! Bandwidths, and L2 size and latency" (§V-A). Those constraints are
//! honoured here: bandwidths are drawn from the power-of-two grid at or
//! above the vector width in bytes, the L2 size grid starts above the
//! sampled L1 size, and the L2 latency is resampled/clamped until the L2
//! hit time exceeds the L1 hit time in wall-clock terms.

use crate::config::DesignConfig;
pub use crate::config::FEATURE_NAMES;
use armdse_memsim::MemParams;
use armdse_rng::{Rng, SeedableRng, Xoshiro256pp};
use armdse_simcore::CoreParams;

/// The sampled design space. `paper()` gives the ranges of Tables II/III
/// (memory ranges reconstructed; see DESIGN.md §3).
#[derive(Debug, Clone)]
pub struct ParamSpace {
    /// Vector-length grid in bits.
    vector_lengths: Vec<u32>,
    /// Fetch-block grid in bytes.
    fetch_blocks: Vec<u32>,
    /// Loop-buffer range (inclusive).
    loop_buffer: (u32, u32),
    /// GP/FP register grid.
    reg_grid: Vec<u32>,
    /// Predicate register grid.
    pred_grid: Vec<u32>,
    /// Condition register grid.
    cond_grid: Vec<u32>,
    /// Pipeline width range (commit/frontend/LSQ-completion).
    width: (u32, u32),
    /// ROB grid.
    rob_grid: Vec<u32>,
    /// Load/store queue grid.
    queue_grid: Vec<u32>,
    /// Bandwidth grid in bytes (powers of two).
    bandwidths: Vec<u32>,
    /// Per-cycle request-rate range.
    rate: (u32, u32),
    /// Cache-line grid in bytes.
    lines: Vec<u32>,
    /// L1 size grid in KiB.
    l1_sizes: Vec<u32>,
    /// L1 associativity grid.
    l1_assocs: Vec<u32>,
    /// L1 latency range (cycles).
    l1_latency: (u32, u32),
    /// L1 clock grid in GHz.
    l1_clocks: Vec<f64>,
    /// L2 size grid in KiB.
    l2_sizes: Vec<u32>,
    /// L2 associativity grid.
    l2_assocs: Vec<u32>,
    /// L2 latency range (cycles).
    l2_latency: (u32, u32),
    /// L2 clock grid in GHz.
    l2_clocks: Vec<f64>,
    /// RAM access-time range in ns.
    ram_ns: (u32, u32),
    /// RAM clock grid in GHz.
    ram_clocks: Vec<f64>,
    /// Prefetch-depth range in lines.
    prefetch: (u32, u32),
}

fn pow2s(lo: u32, hi: u32) -> Vec<u32> {
    let mut v = Vec::new();
    let mut x = lo;
    while x <= hi {
        v.push(x);
        x *= 2;
    }
    v
}

fn steps(lo: u32, hi: u32, step: u32) -> Vec<u32> {
    (lo..=hi).step_by(step as usize).collect()
}

impl ParamSpace {
    /// The paper's design space (Table II exactly; Table III
    /// reconstructed — see DESIGN.md).
    pub fn paper() -> ParamSpace {
        let mut reg_grid = vec![38];
        reg_grid.extend(steps(40, 512, 8));
        ParamSpace {
            vector_lengths: pow2s(128, 2048),
            fetch_blocks: pow2s(4, 2048),
            loop_buffer: (1, 512),
            reg_grid,
            pred_grid: steps(24, 512, 8),
            cond_grid: steps(8, 512, 8),
            width: (1, 64),
            rob_grid: steps(8, 512, 4),
            queue_grid: steps(4, 512, 4),
            bandwidths: pow2s(16, 1024),
            rate: (1, 32),
            lines: pow2s(16, 256),
            l1_sizes: pow2s(2, 128),
            l1_assocs: vec![2, 4, 8, 16],
            l1_latency: (1, 8),
            l1_clocks: vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
            l2_sizes: pow2s(64, 8192),
            l2_assocs: vec![4, 8, 16],
            l2_latency: (4, 64),
            l2_clocks: vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            ram_ns: (20, 200),
            ram_clocks: vec![0.8, 1.2, 1.6, 2.4, 3.2],
            prefetch: (0, 4),
        }
    }

    /// Deterministically sample the design point with index/seed `seed`.
    pub fn sample_seeded(&self, seed: u64) -> DesignConfig {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        self.sample(&mut rng)
    }

    /// Sample one valid design point.
    pub(crate) fn sample(&self, rng: &mut Xoshiro256pp) -> DesignConfig {
        let pick = |rng: &mut Xoshiro256pp, v: &[u32]| v[rng.gen_range(0..v.len())];
        let pickf = |rng: &mut Xoshiro256pp, v: &[f64]| v[rng.gen_range(0..v.len())];
        let range = |rng: &mut Xoshiro256pp, (lo, hi): (u32, u32)| rng.gen_range(lo..=hi);

        let vector_length = pick(rng, &self.vector_lengths);
        let vl_bytes = vector_length / 8;
        // Constraint: bandwidth grid restricted to >= one full vector.
        let bw_grid: Vec<u32> = self
            .bandwidths
            .iter()
            .copied()
            .filter(|&b| b >= vl_bytes)
            .collect();
        assert!(!bw_grid.is_empty(), "bandwidth grid cannot cover VL");

        let core = CoreParams {
            vector_length,
            fetch_block_bytes: pick(rng, &self.fetch_blocks),
            loop_buffer_size: range(rng, self.loop_buffer),
            gp_regs: pick(rng, &self.reg_grid),
            fp_regs: pick(rng, &self.reg_grid),
            pred_regs: pick(rng, &self.pred_grid),
            cond_regs: pick(rng, &self.cond_grid),
            commit_width: range(rng, self.width),
            frontend_width: range(rng, self.width),
            lsq_completion_width: range(rng, self.width),
            rob_size: pick(rng, &self.rob_grid),
            load_queue: pick(rng, &self.queue_grid),
            store_queue: pick(rng, &self.queue_grid),
            load_bandwidth: pick(rng, &bw_grid),
            store_bandwidth: pick(rng, &bw_grid),
            mem_requests_per_cycle: range(rng, self.rate),
            loads_per_cycle: range(rng, self.rate),
            stores_per_cycle: range(rng, self.rate),
        };

        let line_bytes = pick(rng, &self.lines);
        // Geometry constraint: at least one set (line * assoc <= size).
        let l1_size_kib = pick(rng, &self.l1_sizes);
        let l1_fit: Vec<u32> = self
            .l1_assocs
            .iter()
            .copied()
            .filter(|&a| line_bytes * a <= l1_size_kib * 1024)
            .collect();
        let l1_assoc = pick(rng, &l1_fit);
        // Constraint: L2 strictly larger than L1.
        let l2_fit: Vec<u32> = self
            .l2_sizes
            .iter()
            .copied()
            .filter(|&s| s > l1_size_kib)
            .collect();
        let l2_size_kib = pick(rng, &l2_fit);
        let l2_assoc_fit: Vec<u32> = self
            .l2_assocs
            .iter()
            .copied()
            .filter(|&a| line_bytes * a <= l2_size_kib * 1024)
            .collect();
        let l2_assoc = pick(rng, &l2_assoc_fit);

        let l1_latency = range(rng, self.l1_latency);
        let l1_clock_ghz = pickf(rng, &self.l1_clocks);
        let l2_clock_ghz = pickf(rng, &self.l2_clocks);
        // Constraint: L2 wall-clock hit time strictly above L1's. Lower
        // bound the latency grid accordingly, then sample.
        let l1_ns = f64::from(l1_latency) / l1_clock_ghz;
        let min_l2_lat = ((l1_ns * l2_clock_ghz).floor() as u32 + 1).max(self.l2_latency.0);
        let l2_latency = if min_l2_lat >= self.l2_latency.1 {
            self.l2_latency.1
        } else {
            rng.gen_range(min_l2_lat..=self.l2_latency.1)
        };

        let mem = MemParams {
            line_bytes,
            l1_size_kib,
            l1_assoc,
            l1_latency,
            l1_clock_ghz,
            l2_size_kib,
            l2_assoc,
            l2_latency,
            l2_clock_ghz,
            ram_access_ns: f64::from(range(rng, self.ram_ns)),
            ram_clock_ghz: pickf(rng, &self.ram_clocks),
            prefetch_depth: range(rng, self.prefetch),
        };

        let cfg = DesignConfig { core, mem };
        debug_assert!(
            cfg.validate().is_ok(),
            "sampler produced invalid config: {cfg:?}"
        );
        cfg
    }

    /// Sample with a parameter pinned to a fixed value by feature name
    /// (used for the paper's Figs. 4/5: importances with vector length
    /// constrained to 128 or 2048).
    pub fn sample_seeded_pinned(&self, seed: u64, pins: &[(impl AsRef<str>, f64)]) -> DesignConfig {
        let base = self.sample_seeded(seed);
        let mut f = base.to_features();
        for (name, value) in pins {
            let name = name.as_ref();
            let i = FEATURE_NAMES
                .iter()
                .position(|&n| n == name)
                .unwrap_or_else(|| panic!("unknown feature {name}"));
            f[i] = *value;
        }
        let mut cfg = DesignConfig::from_features(&f);
        // Re-establish the bandwidth constraint if the pin raised VL.
        let vl_bytes = cfg.core.vector_length / 8;
        cfg.core.load_bandwidth = cfg.core.load_bandwidth.max(vl_bytes);
        cfg.core.store_bandwidth = cfg.core.store_bandwidth.max(vl_bytes);
        cfg
    }
}

impl Default for ParamSpace {
    fn default() -> Self {
        ParamSpace::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hundreds_of_samples_all_validate() {
        let s = ParamSpace::paper();
        for seed in 0..500 {
            let cfg = s.sample_seeded(seed);
            cfg.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{cfg:?}"));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = ParamSpace::paper();
        assert_eq!(s.sample_seeded(42), s.sample_seeded(42));
        assert_ne!(s.sample_seeded(42), s.sample_seeded(43));
    }

    #[test]
    fn bandwidth_constraint_tracks_vector_length() {
        let s = ParamSpace::paper();
        for seed in 0..300 {
            let cfg = s.sample_seeded(seed);
            assert!(cfg.core.load_bandwidth >= cfg.core.vector_length / 8);
            assert!(cfg.core.store_bandwidth >= cfg.core.vector_length / 8);
        }
    }

    #[test]
    fn l2_dominates_l1_everywhere() {
        let s = ParamSpace::paper();
        for seed in 0..300 {
            let cfg = s.sample_seeded(seed);
            assert!(cfg.mem.l2_size_kib > cfg.mem.l1_size_kib, "seed {seed}");
            assert!(cfg.mem.l2_hit_ns() > cfg.mem.l1_hit_ns(), "seed {seed}");
        }
    }

    #[test]
    fn grids_match_paper_ranges() {
        let s = ParamSpace::paper();
        assert_eq!(s.vector_lengths, vec![128, 256, 512, 1024, 2048]);
        assert_eq!(s.fetch_blocks.first(), Some(&4));
        assert_eq!(s.fetch_blocks.last(), Some(&2048));
        assert_eq!(s.reg_grid.first(), Some(&38));
        assert_eq!(s.reg_grid.last(), Some(&512));
        assert_eq!(s.rob_grid.first(), Some(&8));
        assert_eq!(s.rob_grid.last(), Some(&512));
        assert_eq!(s.bandwidths, vec![16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn pinning_fixes_vector_length() {
        let s = ParamSpace::paper();
        for seed in 0..100 {
            let cfg = s.sample_seeded_pinned(seed, &[("Vector-Length", 2048.0)]);
            assert_eq!(cfg.core.vector_length, 2048);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn sampler_covers_vector_grid() {
        let s = ParamSpace::paper();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            seen.insert(s.sample_seeded(seed).core.vector_length);
        }
        assert_eq!(
            seen.len(),
            5,
            "all vector lengths should appear in 200 draws"
        );
    }
}
