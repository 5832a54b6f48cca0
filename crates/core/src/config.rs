//! A complete design point: core parameters plus memory parameters, and
//! its flattening to the 30-feature vector the surrogate model consumes.
//!
//! `FEATURES` describes the paper's space (Tables II/III) once: feature
//! names, the feature vector, the sampler's grids and the pin check all
//! derive from its rows.

use armdse_memsim::MemParams;
use armdse_simcore::CoreParams;
use std::fmt;
use Domain::{Listed, Pow2, Range, Steps};

/// The values a feature takes in the paper's space: the grid the sampler
/// draws from, and the `[lo, hi]` a pin must lie in. Every domain but a
/// listed one holds integers.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Domain {
    /// `Pow2(lo, hi)`: the powers of two `lo, 2·lo, …, hi`.
    Pow2(u32, u32),
    /// `Steps(first, lo, hi, step)`: `first`, then `lo, lo + step, …` up
    /// to `hi` (`first == lo` but for GP/FP's 38 below 40).
    Steps(u32, u32, u32, u32),
    /// `Range(lo, hi)`: every integer in `lo..=hi`, drawn by one
    /// `gen_range(lo..=hi)`.
    Range(u32, u32),
    /// Listed values, ascending (the clocks, in GHz).
    Listed(&'static [f64]),
}

impl Domain {
    /// Values of an integer domain, ascending. Panics on a listed one.
    pub(crate) fn grid(self) -> impl ExactSizeIterator<Item = u32> + Clone {
        // `tail` values follow `lo`; step 0 doubles.
        let (first, lo, step, tail) = match self {
            Pow2(lo, hi) => (lo, lo, 0, (hi / lo).ilog2()),
            Steps(first, lo, hi, step) => (first, lo, step, (hi - lo) / step),
            Range(lo, hi) => (lo, lo, 1, hi - lo),
            Listed(_) => panic!("a listed domain has no integer grid"),
        };
        let head = u32::from(first != lo); // `first` leads when below `lo`
        (0..head + tail + 1).map(move |i| match i.checked_sub(head) {
            None => first,
            Some(k) if step == 0 => lo << k,
            Some(k) => lo + k * step,
        })
    }

    /// Smallest and largest value, and whether the values are integers.
    fn bounds(self) -> (f64, f64, bool) {
        match self {
            Listed(v) => (v[0], v[v.len() - 1], false),
            grid => {
                let lo = grid.grid().next().expect("an integer domain is non-empty");
                let hi = grid.grid().last().unwrap_or(lo);
                (f64::from(lo), f64::from(hi), true)
            }
        }
    }
}

/// A grid prints as its value list and a range as its `(lo, hi)` pair:
/// the text `ParamSpace`'s `Debug`, and through it every sampled plan's
/// fingerprint, is made of.
impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Range(lo, hi) => (lo, hi).fmt(f),
            Listed(values) => values.fmt(f),
            grid => f.debug_list().entries(grid.grid()).finish(),
        }
    }
}

/// One row of [`FEATURES`].
#[derive(Clone, Copy)]
pub(crate) struct Feature {
    /// The name the paper's figures use (e.g. `Vector-Length`).
    pub(crate) name: &'static str,
    /// The values the paper's space gives it.
    pub(crate) domain: Domain,
    /// Read the feature's field.
    get: fn(&DesignConfig) -> f64,
    /// Set the feature's field (an integer field takes `v as u32`).
    pub(crate) set: fn(&mut DesignConfig, f64),
}

/// Refuse a pin of an unknown feature, one outside its feature's
/// `[lo, hi]`, or a fractional pin of an integer feature, naming the
/// feature and its range.
pub(crate) fn check_pin(name: &str, v: f64) -> Result<(), String> {
    let feature = find(name).ok_or_else(|| format!("unknown pinned feature '{name}'"))?;
    let (lo, hi, integral) = feature.domain.bounds();
    if !(lo..=hi).contains(&v) || integral && v.fract() != 0.0 {
        let kind = if integral { "an integer" } else { "a value" };
        return Err(format!("pin {name} = {v} is not {kind} in [{lo}, {hi}]"));
    }
    Ok(())
}

/// The domain of the feature named `name`. Used in `const` context, a
/// misspelled name fails the build.
pub(crate) const fn domain(name: &str) -> Domain {
    const fn same(a: &[u8], b: &[u8]) -> bool {
        match (a, b) {
            ([x, a @ ..], [y, b @ ..]) => *x == *y && same(a, b),
            _ => a.is_empty() && b.is_empty(),
        }
    }
    let mut i = 0;
    while !same(FEATURES[i].name.as_bytes(), name.as_bytes()) {
        i += 1; // indexes past the table when no row matches
    }
    FEATURES[i].domain
}

/// The row named `name`, a name from outside the program.
pub(crate) fn find(name: &str) -> Option<&'static Feature> {
    FEATURES.iter().find(|f| f.name == name)
}

/// The table and the names [`FEATURE_NAMES`] takes, one row per feature:
/// `name domain => field`.
macro_rules! features {
    ($($name:literal $domain:expr => $half:ident.$field:ident,)*) => {
        const NAMES: [&str; 30] = [$($name),*];

        /// The paper's thirty features in feature-vector order: Table II
        /// exactly, Table III reconstructed (DESIGN.md §3).
        pub(crate) const FEATURES: [Feature; 30] = [$(Feature {
            name: $name,
            domain: $domain,
            get: |c| c.$half.$field as f64,
            set: |c, v| c.$half.$field = v as _,
        }),*];
    };
}

/// The thirty feature names, in feature-vector order. Names follow the
/// paper's figures (e.g. `Vector-Length`, `L1-Clock`).
pub const FEATURE_NAMES: [&str; 30] = NAMES;

/// Physical GP and FP/SVE registers.
const REGS: Domain = Steps(38, 40, 512, 8);

features! {
    "Vector-Length" Pow2(128, 2048) => core.vector_length,
    "Fetch-Block-Size" Pow2(4, 2048) => core.fetch_block_bytes,
    "Loop-Buffer-Size" Range(1, 512) => core.loop_buffer_size,
    "GP-Registers" REGS => core.gp_regs,
    "FP-SVE-Registers" REGS => core.fp_regs,
    "Predicate-Registers" Steps(24, 24, 512, 8) => core.pred_regs,
    "Conditional-Registers" Steps(8, 8, 512, 8) => core.cond_regs,
    "Commit-Width" Range(1, 64) => core.commit_width,
    "Frontend-Width" Range(1, 64) => core.frontend_width,
    "LSQ-Completion-Width" Range(1, 64) => core.lsq_completion_width,
    "ROB-Size" Steps(8, 8, 512, 4) => core.rob_size,
    "Load-Queue-Size" Steps(4, 4, 512, 4) => core.load_queue,
    "Store-Queue-Size" Steps(4, 4, 512, 4) => core.store_queue,
    "Load-Bandwidth" Pow2(16, 1024) => core.load_bandwidth,
    "Store-Bandwidth" Pow2(16, 1024) => core.store_bandwidth,
    "Mem-Requests-Per-Cycle" Range(1, 32) => core.mem_requests_per_cycle,
    "Loads-Per-Cycle" Range(1, 32) => core.loads_per_cycle,
    "Stores-Per-Cycle" Range(1, 32) => core.stores_per_cycle,
    "Cache-Line-Width" Pow2(16, 256) => mem.line_bytes,
    "L1-Size" Pow2(2, 128) => mem.l1_size_kib,
    "L1-Assoc" Pow2(2, 16) => mem.l1_assoc,
    "L1-Latency" Range(1, 8) => mem.l1_latency,
    "L1-Clock" Listed(&[1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]) => mem.l1_clock_ghz,
    "L2-Size" Pow2(64, 8192) => mem.l2_size_kib,
    "L2-Assoc" Pow2(4, 16) => mem.l2_assoc,
    "L2-Latency" Range(4, 64) => mem.l2_latency,
    "L2-Clock" Listed(&[0.5, 1.0, 1.5, 2.0, 2.5, 3.0]) => mem.l2_clock_ghz,
    "RAM-Latency" Range(20, 200) => mem.ram_access_ns,
    "RAM-Clock" Listed(&[0.8, 1.2, 1.6, 2.4, 3.2]) => mem.ram_clock_ghz,
    "Prefetch-Depth" Range(0, 4) => mem.prefetch_depth,
}

/// One sampled design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignConfig {
    /// Core-side parameters (Table II).
    pub core: CoreParams,
    /// Memory-side parameters (Table III).
    pub mem: MemParams,
}

impl DesignConfig {
    /// The ThunderX2-like baseline used for the Table I validation.
    pub fn thunderx2() -> DesignConfig {
        DesignConfig {
            core: CoreParams::thunderx2(),
            mem: MemParams::thunderx2(),
        }
    }

    /// Validate both halves.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        self.mem.validate()
    }

    /// Flatten to the 30-feature vector (order = [`FEATURE_NAMES`]).
    pub fn to_features(&self) -> [f64; 30] {
        FEATURES.map(|f| (f.get)(self))
    }

    /// Rebuild a config from a feature vector (inverse of
    /// [`DesignConfig::to_features`]); used by the CSV loader.
    pub fn from_features(f: &[f64]) -> DesignConfig {
        assert_eq!(f.len(), 30, "feature vector must have 30 entries");
        // Every field is set below; the baseline only gives the shape.
        let mut cfg = DesignConfig::thunderx2();
        for (feature, &v) in FEATURES.iter().zip(f) {
            (feature.set)(&mut cfg, v);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        DesignConfig::thunderx2().validate().unwrap();
    }

    #[test]
    fn feature_roundtrip() {
        let c = DesignConfig::thunderx2();
        let f = c.to_features();
        let back = DesignConfig::from_features(&f);
        assert_eq!(c, back);
    }

    #[test]
    fn names_match_width() {
        assert_eq!(FEATURE_NAMES.len(), 30);
        assert_eq!(DesignConfig::thunderx2().to_features().len(), 30);
        // Names are unique.
        let mut n: Vec<&str> = FEATURE_NAMES.to_vec();
        n.sort_unstable();
        n.dedup();
        assert_eq!(n.len(), 30);
    }

    #[test]
    fn vector_length_is_feature_zero() {
        assert_eq!(FEATURE_NAMES[0], "Vector-Length");
        let f = DesignConfig::thunderx2().to_features();
        assert_eq!(f[0], 128.0);
    }

    /// Each row reads and sets its own field: setting feature `i` of the
    /// baseline to a fresh value moves feature `i` and no other.
    #[test]
    fn each_row_sets_only_its_field() {
        let base = DesignConfig::thunderx2();
        for (i, feature) in FEATURES.iter().enumerate() {
            let mut cfg = base;
            (feature.set)(&mut cfg, base.to_features()[i] + 1.0);
            let (was, now) = (base.to_features(), cfg.to_features());
            for j in 0..30 {
                assert_eq!(
                    now[j] != was[j],
                    i == j,
                    "{} moved feature {j}",
                    feature.name
                );
            }
        }
    }

    #[test]
    fn domains_are_ascending_and_bounded() {
        for f in FEATURES {
            let (lo, hi, _) = f.domain.bounds();
            match f.domain {
                Listed(v) => assert!(v.windows(2).all(|w| w[0] < w[1]), "{}", f.name),
                grid => {
                    let v: Vec<u32> = grid.grid().collect();
                    assert!(v.windows(2).all(|w| w[0] < w[1]), "{}", f.name);
                    assert_eq!((f64::from(v[0]), f64::from(v[v.len() - 1])), (lo, hi));
                }
            }
        }
        assert_eq!(domain("FP-SVE-Registers").grid().count(), 61);
        assert_eq!(domain("ROB-Size").grid().count(), 127);
    }

    /// Every ThunderX2 feature is a pin the space admits
    /// (`tests/explorer_efficiency.rs` pins 26 of them).
    #[test]
    fn every_thunderx2_feature_passes_the_pin_check() {
        let f = DesignConfig::thunderx2().to_features();
        for (name, v) in FEATURE_NAMES.iter().zip(f) {
            check_pin(name, v).unwrap();
        }
    }

    #[test]
    fn pins_outside_the_range_or_fractional_are_refused() {
        let sq = |v| check_pin("Store-Queue-Size", v);
        sq(512.0).unwrap();
        sq(150.0).unwrap(); // in range, off the step grid
        let err = sq(1000.0).unwrap_err();
        assert!(
            err.contains("Store-Queue-Size") && err.contains("[4, 512]"),
            "{err}"
        );
        assert!(sq(4e9).is_err());
        assert!(sq(f64::NAN).is_err());
        assert!(check_pin("Store-Queue", 8.0)
            .unwrap_err()
            .contains("unknown"));
        let err = check_pin("ROB-Size", 152.9).unwrap_err();
        assert!(err.contains("ROB-Size") && err.contains("integer"), "{err}");
        // A listed feature takes fractions inside its range; every
        // other domain holds integers.
        check_pin("L1-Clock", 2.25).unwrap();
        assert!(check_pin("L1-Clock", 4.5).is_err());
        assert!(check_pin("RAM-Latency", 85.5).is_err());
    }
}
