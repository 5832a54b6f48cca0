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

pub use crate::config::FEATURE_NAMES;
use crate::config::{self, domain, DesignConfig, Domain, FEATURES};
use armdse_memsim::MemParams;
use armdse_rng::{Rng, SeedableRng, Xoshiro256pp};
use armdse_simcore::CoreParams;
use std::fmt;

/// The sampled design space: the domains of `config::FEATURES` (Tables
/// II/III; memory ranges reconstructed, see DESIGN.md §3) under the
/// paper's sampling constraints.
#[derive(Clone, Default)]
pub struct ParamSpace(());

/// The names the domains print under, one per run of features that share
/// one. Every sampled plan's fingerprint hashes this `Debug` text, so
/// checkpoints written before the table keep resuming.
const DEBUG_KEYS: &str = "vector_lengths fetch_blocks loop_buffer reg_grid pred_grid cond_grid \
    width rob_grid queue_grid bandwidths rate lines l1_sizes l1_assocs l1_latency l1_clocks \
    l2_sizes l2_assocs l2_latency l2_clocks ram_ns ram_clocks prefetch";

impl fmt::Debug for ParamSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut domains: Vec<Domain> = FEATURES.iter().map(|f| f.domain).collect();
        domains.dedup();
        let mut s = f.debug_struct("ParamSpace");
        for (key, domain) in DEBUG_KEYS.split_whitespace().zip(&domains) {
            s.field(key, domain);
        }
        s.finish()
    }
}

/// One draw from an integer domain: a range's is `gen_range(lo..=hi)`, a
/// grid's a `gen_range(0..n)` index over its `n` values.
fn draw(rng: &mut Xoshiro256pp, d: Domain) -> u32 {
    match d {
        Domain::Range(lo, hi) => rng.gen_range(lo..=hi),
        grid => {
            let mut values = grid.grid();
            let i = rng.gen_range(0..values.len());
            values.nth(i).expect("index below the grid's length")
        }
    }
}

/// One draw from the values of grid `d` that `keep` admits: a
/// `gen_range(0..n)` index over the `n` kept values.
fn pick(rng: &mut Xoshiro256pp, d: Domain, keep: impl Fn(u32) -> bool) -> u32 {
    let mut kept = d.grid().filter(|&v| keep(v));
    let n = kept.clone().count();
    assert!(n > 0, "no value of {d:?} meets the sampling constraint");
    kept.nth(rng.gen_range(0..n))
        .expect("index below the kept count")
}

/// One draw from a listed domain: a `gen_range(0..n)` index.
fn pickf(rng: &mut Xoshiro256pp, d: Domain) -> f64 {
    let Domain::Listed(values) = d else {
        unreachable!("an integer domain has no listed values")
    };
    values[rng.gen_range(0..values.len())]
}

impl ParamSpace {
    /// The paper's design space (Table II exactly; Table III
    /// reconstructed — see DESIGN.md).
    pub fn paper() -> ParamSpace {
        ParamSpace(())
    }

    /// Deterministically sample the design point with index/seed `seed`.
    pub fn sample_seeded(&self, seed: u64) -> DesignConfig {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        self.sample(&mut rng)
    }

    /// Sample one valid design point. The draws are made in this fixed
    /// order, one `gen_range` each, so every seed keeps its point.
    pub(crate) fn sample(&self, rng: &mut Xoshiro256pp) -> DesignConfig {
        let vector_length = draw(rng, const { domain("Vector-Length") });
        // Constraint: bandwidth grid restricted to >= one full vector.
        let covers = |b| b >= vector_length / 8;

        let core = CoreParams {
            vector_length,
            fetch_block_bytes: draw(rng, const { domain("Fetch-Block-Size") }),
            loop_buffer_size: draw(rng, const { domain("Loop-Buffer-Size") }),
            gp_regs: draw(rng, const { domain("GP-Registers") }),
            fp_regs: draw(rng, const { domain("FP-SVE-Registers") }),
            pred_regs: draw(rng, const { domain("Predicate-Registers") }),
            cond_regs: draw(rng, const { domain("Conditional-Registers") }),
            commit_width: draw(rng, const { domain("Commit-Width") }),
            frontend_width: draw(rng, const { domain("Frontend-Width") }),
            lsq_completion_width: draw(rng, const { domain("LSQ-Completion-Width") }),
            rob_size: draw(rng, const { domain("ROB-Size") }),
            load_queue: draw(rng, const { domain("Load-Queue-Size") }),
            store_queue: draw(rng, const { domain("Store-Queue-Size") }),
            load_bandwidth: pick(rng, const { domain("Load-Bandwidth") }, covers),
            store_bandwidth: pick(rng, const { domain("Store-Bandwidth") }, covers),
            mem_requests_per_cycle: draw(rng, const { domain("Mem-Requests-Per-Cycle") }),
            loads_per_cycle: draw(rng, const { domain("Loads-Per-Cycle") }),
            stores_per_cycle: draw(rng, const { domain("Stores-Per-Cycle") }),
        };

        let line_bytes = draw(rng, const { domain("Cache-Line-Width") });
        // Geometry constraint: at least one set (line * assoc <= size).
        let fits = |assoc, size_kib| line_bytes * assoc <= size_kib * 1024;
        let l1_size_kib = draw(rng, const { domain("L1-Size") });
        let l1_assoc = pick(rng, const { domain("L1-Assoc") }, |a| fits(a, l1_size_kib));
        // Constraint: L2 strictly larger than L1.
        let l2_size_kib = pick(rng, const { domain("L2-Size") }, |s| s > l1_size_kib);
        let l2_assoc = pick(rng, const { domain("L2-Assoc") }, |a| fits(a, l2_size_kib));

        let l1_latency = draw(rng, const { domain("L1-Latency") });
        let l1_clock_ghz = pickf(rng, const { domain("L1-Clock") });
        let l2_clock_ghz = pickf(rng, const { domain("L2-Clock") });
        // Constraint: L2 wall-clock hit time strictly above L1's. Lower
        // bound the latency grid accordingly, then sample.
        let Domain::Range(lo, hi) = (const { domain("L2-Latency") }) else {
            unreachable!("L2-Latency is a range")
        };
        let l1_ns = f64::from(l1_latency) / l1_clock_ghz;
        let min_l2_lat = ((l1_ns * l2_clock_ghz).floor() as u32 + 1).max(lo);
        let l2_latency = if min_l2_lat >= hi {
            hi
        } else {
            rng.gen_range(min_l2_lat..=hi)
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
            ram_access_ns: f64::from(draw(rng, const { domain("RAM-Latency") })),
            ram_clock_ghz: pickf(rng, const { domain("RAM-Clock") }),
            prefetch_depth: draw(rng, const { domain("Prefetch-Depth") }),
        };

        let cfg = DesignConfig { core, mem };
        debug_assert!(
            cfg.validate().is_ok(),
            "sampler produced invalid config: {cfg:?}"
        );
        cfg
    }

    /// Sample with features pinned to fixed values by name (used for the
    /// paper's Figs. 4/5: importances with vector length constrained to
    /// 128 or 2048). A sampled [`RunPlan`](crate::engine::RunPlan)
    /// refuses an out-of-range or fractional pin before it samples;
    /// here an integer feature takes a pin truncated.
    pub fn sample_seeded_pinned(&self, seed: u64, pins: &[(impl AsRef<str>, f64)]) -> DesignConfig {
        let mut cfg = self.sample_seeded(seed);
        for (name, value) in pins {
            let name = name.as_ref();
            let pinned = config::find(name).unwrap_or_else(|| panic!("unknown feature {name}"));
            (pinned.set)(&mut cfg, *value);
        }
        // Re-establish the bandwidth constraint if the pin raised VL.
        let vl_bytes = cfg.core.vector_length / 8;
        cfg.core.load_bandwidth = cfg.core.load_bandwidth.max(vl_bytes);
        cfg.core.store_bandwidth = cfg.core.store_bandwidth.max(vl_bytes);
        cfg
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
        let grid = |name| domain(name).grid().collect::<Vec<u32>>();
        assert_eq!(grid("Vector-Length"), vec![128, 256, 512, 1024, 2048]);
        let fetch = grid("Fetch-Block-Size");
        assert_eq!((fetch.first(), fetch.last()), (Some(&4), Some(&2048)));
        let regs = grid("GP-Registers");
        assert_eq!((regs.first(), regs.last()), (Some(&38), Some(&512)));
        let rob = grid("ROB-Size");
        assert_eq!((rob.first(), rob.last()), (Some(&8), Some(&512)));
        assert_eq!(
            grid("Load-Bandwidth"),
            vec![16, 32, 64, 128, 256, 512, 1024]
        );
    }

    /// The `Debug` text every sampled plan's fingerprint hashes, and
    /// the features of ten thousand samples, pinned by their FNV-1a
    /// digests as the hand-listed grids wrote them.
    #[test]
    fn debug_text_and_samples_are_the_listed_grids() {
        use armdse_memsim::fasthash::Fnv1a;
        let s = ParamSpace::paper();
        let text = format!("{s:?}");
        assert!(text.starts_with("ParamSpace { vector_lengths: [128, 256, 512, 1024, 2048], "));
        assert!(text.contains("reg_grid: [38, 40, 48, "));
        assert!(text.contains("l1_clocks: [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], "));
        assert!(text.ends_with(
            "ram_ns: (20, 200), ram_clocks: [0.8, 1.2, 1.6, 2.4, 3.2], prefetch: (0, 4) }"
        ));
        let digest = Fnv1a::new().bytes(text.as_bytes()).finish();
        assert_eq!((text.len(), digest), (2793, 0x61d7_ae33_d5c7_be81));
        let mut h = Fnv1a::new();
        for seed in 0..10_000 {
            for v in s.sample_seeded(seed).to_features() {
                h.bytes(&v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(h.finish(), 0xf024_75c4_73e3_7d6f);
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
