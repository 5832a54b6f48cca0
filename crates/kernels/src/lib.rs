//! # armdse-kernels — vector-length-agnostic HPC workload generators
//!
//! Stand-ins for the paper's four statically compiled Armv8.4-a+SVE
//! binaries (§IV-A, Table IV): STREAM, miniBUDE, TeaLeaf, and MiniSweep.
//! Each generator emits a kernel-IR loop nest that reproduces the
//! corresponding code's
//!
//! * **loop structure** (streaming passes, pose×atom nests, CG solver
//!   phases, KBA wavefront sweeps),
//! * **instruction mix** — in particular the vectorisation split of
//!   Fig. 1: STREAM and miniBUDE compile to heavily SVE-vectorised loops,
//!   while the compiler vectorises TeaLeaf and MiniSweep poorly, so those
//!   two are generated almost entirely scalar,
//! * **memory access pattern** (unit-stride streams, broadcast-reused
//!   lookup tables, 5-point stencils, face-coupled sweeps), and
//! * **working-set size**, scaled down (as the paper itself scales its
//!   inputs for simulation) so each code straddles the same cache-capacity
//!   boundaries: STREAM straddles L2, TeaLeaf/MiniSweep sit at the L1/L2
//!   boundary, miniBUDE is register/L1-resident.
//!
//! Vector-length agnosticism is honoured exactly as
//! `-msve-vector-bits=scalable` compilation does: the same generator
//! (binary) serves every vector length, with governed-loop trip counts of
//! `ceil(n / lanes)`.

#![warn(missing_docs)]

mod cache;
pub mod gemm;
pub mod graph;
mod layout;
mod minibude;
pub mod minisweep;
pub mod spmv;
pub mod stream;
pub mod tealeaf;

pub use cache::WorkloadCache;

use armdse_isa::{OpSummary, Program};

/// The four HPC applications of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    /// STREAM sustained-memory-bandwidth benchmark (McCalpin); heavily
    /// memory bound, highly vectorised.
    Stream,
    /// miniBUDE molecular-docking mini-app; compute bound, highly
    /// vectorised, FMA dense.
    MiniBude,
    /// TeaLeaf linear heat-conduction mini-app (SPEChpc); memory bound,
    /// poorly vectorised (scalar CG solver).
    TeaLeaf,
    /// MiniSweep radiation-transport mini-app (SPEChpc); compute bound on
    /// a single rank, poorly vectorised.
    MiniSweep,
    /// CSR sparse matrix-vector multiply; gather bound, vectorised
    /// (extension beyond the paper's four codes).
    Spmv,
    /// Register-blocked dense matrix multiply; FMA dense, heavily
    /// vectorised (extension).
    Gemm,
    /// Pointer-chasing graph traversal; load-latency bound, fully
    /// scalar (extension).
    Graph,
}

impl App {
    /// The paper's four applications in presentation order. Campaigns
    /// and figures that reproduce the paper iterate this set.
    pub const ALL: [App; 4] = [App::Stream, App::MiniBude, App::TeaLeaf, App::MiniSweep];

    /// The paper's four applications plus the extension kernels
    /// ([`App::Spmv`], [`App::Gemm`], [`App::Graph`]) — the pool the
    /// unseen-app generalisation experiment draws from.
    pub const EXTENDED: [App; 7] = [
        App::Stream,
        App::MiniBude,
        App::TeaLeaf,
        App::MiniSweep,
        App::Spmv,
        App::Gemm,
        App::Graph,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            App::Stream => "STREAM",
            App::MiniBude => "MiniBude",
            App::TeaLeaf => "TeaLeaf",
            App::MiniSweep => "MiniSweep",
            App::Spmv => "SpMV",
            App::Gemm => "GEMM",
            App::Graph => "Graph",
        }
    }

    /// Stable index for per-app arrays.
    pub fn index(self) -> usize {
        match self {
            App::Stream => 0,
            App::MiniBude => 1,
            App::TeaLeaf => 2,
            App::MiniSweep => 3,
            App::Spmv => 4,
            App::Gemm => 5,
            App::Graph => 6,
        }
    }

    /// Parse a case-insensitive app name.
    pub fn parse(s: &str) -> Option<App> {
        match s.to_ascii_lowercase().as_str() {
            "stream" => Some(App::Stream),
            "minibude" | "bude" => Some(App::MiniBude),
            "tealeaf" => Some(App::TeaLeaf),
            "minisweep" => Some(App::MiniSweep),
            "spmv" => Some(App::Spmv),
            "gemm" => Some(App::Gemm),
            "graph" => Some(App::Graph),
            _ => None,
        }
    }
}

/// Input-size presets trading simulation time for fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadScale {
    /// A few hundred to a few thousand retired instructions; unit tests.
    Tiny,
    /// Around 10⁴ retired instructions; integration tests and quick demos.
    Small,
    /// Several 10⁴ retired instructions; dataset generation (the paper's
    /// runs retire 10⁷–5×10⁷ instructions — see DESIGN.md scaling note).
    Standard,
}

impl WorkloadScale {
    /// Stable lowercase tag for CLI flags, wire protocols, and
    /// checkpoints (`tiny` / `small` / `standard`).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadScale::Tiny => "tiny",
            WorkloadScale::Small => "small",
            WorkloadScale::Standard => "standard",
        }
    }

    /// Parse a case-insensitive scale tag.
    pub fn parse(s: &str) -> Option<WorkloadScale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(WorkloadScale::Tiny),
            "small" => Some(WorkloadScale::Small),
            "standard" => Some(WorkloadScale::Standard),
            _ => None,
        }
    }
}

/// A generated workload: the lowered program plus its analytic summary
/// (the validation reference).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which application this is.
    pub app: App,
    /// Lowered program ready for simulation.
    pub program: Program,
    /// Analytic per-class retirement counts and byte totals; a simulation
    /// is "validated" when its observed counts equal these.
    pub summary: OpSummary,
}

/// Build the workload for `app` at `scale` and SVE vector length `vl_bits`.
///
/// `vl_bits` must be a power of two in `[128, 2048]` (the paper's range).
pub fn build_workload(app: App, scale: WorkloadScale, vl_bits: u32) -> Workload {
    assert!(
        (128..=2048).contains(&vl_bits) && vl_bits.is_power_of_two(),
        "vector length {vl_bits} outside paper range"
    );
    let kernel = match app {
        App::Stream => stream::kernel(&stream::StreamParams::for_scale(scale), vl_bits),
        App::MiniBude => minibude::kernel(&minibude::BudeParams::for_scale(scale), vl_bits),
        App::TeaLeaf => tealeaf::kernel(&tealeaf::TeaLeafParams::for_scale(scale), vl_bits),
        App::MiniSweep => minisweep::kernel(&minisweep::SweepParams::for_scale(scale), vl_bits),
        App::Spmv => spmv::kernel(&spmv::SpmvParams::for_scale(scale), vl_bits),
        App::Gemm => gemm::kernel(&gemm::GemmParams::for_scale(scale), vl_bits),
        App::Graph => graph::kernel(&graph::GraphParams::for_scale(scale), vl_bits),
    };
    let program = Program::lower(&kernel);
    let summary = OpSummary::of(&program);
    Workload {
        app,
        program,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_and_indices() {
        assert_eq!(App::Stream.name(), "STREAM");
        let mut seen = [false; App::EXTENDED.len()];
        for a in App::EXTENDED {
            assert!(!seen[a.index()]);
            seen[a.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "index gaps in EXTENDED");
        // The paper set is a strict prefix of the extended pool.
        assert_eq!(App::EXTENDED[..4], App::ALL);
    }

    #[test]
    fn parse_round_trips() {
        for a in App::EXTENDED {
            assert_eq!(App::parse(a.name()), Some(a));
        }
        assert_eq!(App::parse("bude"), Some(App::MiniBude));
        assert_eq!(App::parse("nope"), None);
    }

    #[test]
    fn all_apps_build_at_all_scales() {
        for a in App::EXTENDED {
            for s in [
                WorkloadScale::Tiny,
                WorkloadScale::Small,
                WorkloadScale::Standard,
            ] {
                for vl in [128, 512, 2048] {
                    let w = build_workload(a, s, vl);
                    assert!(w.summary.total() > 0, "{a:?} {s:?} vl={vl} empty");
                }
            }
        }
    }

    #[test]
    fn extension_apps_keep_the_vectorisation_split() {
        // SpMV and GEMM join the vectorised side; the pointer chase
        // joins the scalar side.
        for vl in [128, 512, 2048] {
            for (a, vectorised) in [(App::Spmv, true), (App::Gemm, true), (App::Graph, false)] {
                let f = build_workload(a, WorkloadScale::Small, vl)
                    .summary
                    .sve_fraction();
                if vectorised {
                    assert!(f > 0.35, "{a:?} sve {f} at vl={vl}");
                } else {
                    assert!(f < 0.15, "{a:?} sve {f} at vl={vl}");
                }
            }
        }
    }

    #[test]
    fn vectorisation_split_matches_fig1() {
        // STREAM and miniBUDE are heavily vectorised; TeaLeaf and
        // MiniSweep are not (paper Fig. 1).
        for vl in [128, 512, 2048] {
            let s = build_workload(App::Stream, WorkloadScale::Small, vl)
                .summary
                .sve_fraction();
            let b = build_workload(App::MiniBude, WorkloadScale::Small, vl)
                .summary
                .sve_fraction();
            let t = build_workload(App::TeaLeaf, WorkloadScale::Small, vl)
                .summary
                .sve_fraction();
            let m = build_workload(App::MiniSweep, WorkloadScale::Small, vl)
                .summary
                .sve_fraction();
            assert!(s > 0.4, "STREAM sve {s} at vl={vl}");
            assert!(b > 0.4, "miniBUDE sve {b} at vl={vl}");
            assert!(t < 0.15, "TeaLeaf sve {t} at vl={vl}");
            assert!(m < 0.15, "MiniSweep sve {m} at vl={vl}");
        }
    }

    #[test]
    fn longer_vectors_retire_fewer_instructions() {
        for a in [App::Stream, App::MiniBude] {
            let short = build_workload(a, WorkloadScale::Standard, 128)
                .summary
                .total();
            let long = build_workload(a, WorkloadScale::Standard, 2048)
                .summary
                .total();
            assert!(
                long * 4 < short,
                "{a:?}: vl=2048 should retire far fewer instructions ({long} vs {short})"
            );
        }
    }

    #[test]
    fn scalar_apps_insensitive_to_vl() {
        for a in [App::TeaLeaf, App::MiniSweep] {
            let short = build_workload(a, WorkloadScale::Small, 128).summary.total();
            let long = build_workload(a, WorkloadScale::Small, 2048)
                .summary
                .total();
            let ratio = short as f64 / long as f64;
            assert!(
                ratio < 1.3,
                "{a:?}: near-scalar code should barely shrink ({ratio})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside paper range")]
    fn rejects_bad_vector_length() {
        build_workload(App::Stream, WorkloadScale::Tiny, 96);
    }

    #[test]
    fn standard_scale_instruction_budgets() {
        // Keep dataset-generation runs tractable: between 10^4 and 4x10^5
        // retired instructions at the shortest (most instruction-hungry)
        // vector length.
        for a in App::EXTENDED {
            let n = build_workload(a, WorkloadScale::Standard, 128)
                .summary
                .total();
            assert!(
                (10_000..400_000).contains(&n),
                "{a:?} standard scale retires {n} instructions"
            );
        }
    }
}
