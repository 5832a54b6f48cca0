//! # armdse-simcore — SimEng-like out-of-order core simulator
//!
//! A cycle-approximate model of a configurable out-of-order superscalar
//! Arm core, the SimEng substitute of this reproduction (see DESIGN.md).
//! Every Table II parameter of the paper is a live structural parameter
//! of the model:
//!
//! | Parameter | Mechanism |
//! |---|---|
//! | Vector length | workload trip counts and access widths (VLA), bandwidth floors |
//! | Fetch block size | instructions fetchable per cycle from one aligned window |
//! | Loop buffer size | fetch-block bypass when a hot loop body fits |
//! | GP/FP/predicate/condition registers | rename free lists; empty list stalls rename |
//! | Frontend width | decode/rename throughput |
//! | Commit width | in-order retirement throughput |
//! | ROB size | in-flight window; full ROB stalls dispatch |
//! | Load/store queue sizes | LSQ capacity; full queue stalls dispatch |
//! | LSQ completion width | load writebacks per cycle |
//! | Load/store bandwidth | bytes per cycle between L1 and the core |
//! | Requests/loads/stores per cycle | line-request rate limits |
//!
//! Fixed per the paper (§V-A): a unified 60-entry reservation station,
//! dispatch rate 4, the 3×LS + 2×VEC + 1×PRED + 3×SCALAR port layout, and
//! all instruction latencies.

#![warn(missing_docs)]

mod backend;
mod counters;
mod events;
mod multicore;
mod params;
mod pipeline;
mod regfile;
mod reuse;
mod stats;

pub use backend::{RunMode, RunOutput, SimBackend};
pub use counters::{Counters, CycleBucket};
pub use multicore::{MultiCore, PerCoreMetrics};
pub use params::CoreParams;
#[cfg(feature = "check-invariants")]
pub use pipeline::set_fast_forward;
pub use reuse::{Memoized, ReuseStats, DEFAULT_INTERVAL_LEN};
pub use stats::{SimStats, StallStats};

use armdse_isa::{OpSummary, Program};
use armdse_memsim::MemParams;

/// Default cycle-limit slack: a run is declared wedged (and invalid) if it
/// exceeds `MAX_CPI_GUARD` cycles per dynamic instruction.
pub(crate) const MAX_CPI_GUARD: u64 = 500;

/// The safety cycle limit of a program whose analytic summary is
/// `expected`.
pub(crate) fn cycle_limit(expected: &OpSummary) -> u64 {
    10_000 + expected.total().saturating_mul(MAX_CPI_GUARD)
}

/// Simulate `program` on the paper's machine: a plain
/// [`MultiCore::IDEALIZED`] run. Anything else — another machine shape,
/// a trace, metrics — is a [`SimBackend`] value and a [`RunMode`].
pub fn simulate(program: &Program, core: &CoreParams, mem: &MemParams) -> SimStats {
    MultiCore::IDEALIZED
        .run(program, core, mem, RunMode::Plain)
        .stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_kernels::{build_workload, App, WorkloadScale};
    use armdse_memsim::DEFAULT_BANKS;

    fn tx2() -> (CoreParams, MemParams) {
        (CoreParams::thunderx2(), MemParams::thunderx2())
    }

    fn run(app: App, scale: WorkloadScale, core: &CoreParams, mem: &MemParams) -> SimStats {
        let w = build_workload(app, scale, core.vector_length);
        simulate(&w.program, core, mem)
    }

    #[test]
    fn all_apps_complete_and_validate_on_baseline() {
        let (c, m) = tx2();
        for app in App::ALL {
            let s = run(app, WorkloadScale::Tiny, &c, &m);
            assert!(s.validated, "{app:?} failed validation: {s:?}");
            assert!(s.cycles > 0);
            assert!(s.ipc() > 0.01 && s.ipc() <= 4.0, "{app:?} ipc {}", s.ipc());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (c, m) = tx2();
        let a = run(App::Stream, WorkloadScale::Small, &c, &m);
        let b = run(App::Stream, WorkloadScale::Small, &c, &m);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.retired, b.retired);
    }

    #[test]
    fn retired_matches_analytic_summary() {
        let (c, m) = tx2();
        for app in App::ALL {
            let w = build_workload(app, WorkloadScale::Small, c.vector_length);
            let s = simulate(&w.program, &c, &m);
            assert_eq!(s.observed, w.summary, "{app:?}");
            assert_eq!(s.retired, w.summary.total());
        }
    }

    #[test]
    fn longer_vectors_speed_up_stream() {
        let (mut c, m) = tx2();
        c.load_bandwidth = 512;
        c.store_bandwidth = 512;
        let mut cycles = Vec::new();
        for vl in [128u32, 512, 2048] {
            c.vector_length = vl;
            cycles.push(run(App::Stream, WorkloadScale::Small, &c, &m).cycles);
        }
        assert!(
            cycles[1] < cycles[0],
            "vl512 {} !< vl128 {}",
            cycles[1],
            cycles[0]
        );
        assert!(
            cycles[2] < cycles[1],
            "vl2048 {} !< vl512 {}",
            cycles[2],
            cycles[1]
        );
    }

    #[test]
    fn vector_length_barely_moves_minisweep() {
        let (mut c, m) = tx2();
        c.load_bandwidth = 512;
        c.store_bandwidth = 512;
        c.vector_length = 128;
        let short = run(App::MiniSweep, WorkloadScale::Small, &c, &m).cycles;
        c.vector_length = 2048;
        let long = run(App::MiniSweep, WorkloadScale::Small, &c, &m).cycles;
        let ratio = short as f64 / long as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "scalar code moved {ratio}x with VL"
        );
    }

    #[test]
    fn bigger_rob_helps_until_saturation() {
        let (mut c, m) = tx2();
        c.rob_size = 8;
        let tiny_rob = run(App::Stream, WorkloadScale::Small, &c, &m).cycles;
        c.rob_size = 180;
        let big_rob = run(App::Stream, WorkloadScale::Small, &c, &m).cycles;
        c.rob_size = 512;
        let huge_rob = run(App::Stream, WorkloadScale::Small, &c, &m).cycles;
        assert!(
            big_rob * 2 < tiny_rob,
            "ROB 180 ({big_rob}) should be far faster than ROB 8 ({tiny_rob})"
        );
        // Saturation: beyond the knee, returns are small.
        let gain = big_rob as f64 / huge_rob as f64;
        assert!(gain < 1.3, "ROB 512 should not massively beat 180 ({gain})");
    }

    #[test]
    fn starved_fp_registers_bottleneck_minibude() {
        let (mut c, m) = tx2();
        c.fp_regs = 40;
        let starved = run(App::MiniBude, WorkloadScale::Small, &c, &m);
        c.fp_regs = 256;
        let ample = run(App::MiniBude, WorkloadScale::Small, &c, &m);
        assert!(
            ample.cycles < starved.cycles,
            "fp 256 ({}) !< fp 40 ({})",
            ample.cycles,
            starved.cycles
        );
        assert!(starved.stalls.rename_fp > 0, "expected FP rename stalls");
    }

    #[test]
    fn narrow_frontend_bottlenecks() {
        let (mut c, m) = tx2();
        c.frontend_width = 1;
        let narrow = run(App::MiniBude, WorkloadScale::Small, &c, &m).cycles;
        c.frontend_width = 8;
        let wide = run(App::MiniBude, WorkloadScale::Small, &c, &m).cycles;
        assert!(wide < narrow, "wide {wide} !< narrow {narrow}");
    }

    #[test]
    fn tiny_fetch_block_bottlenecks_unless_loop_buffer_covers() {
        let (mut c, m) = tx2();
        // miniBUDE has enough ILP that a one-instruction-per-cycle fetch
        // rate is the binding constraint.
        c.fetch_block_bytes = 4;
        c.loop_buffer_size = 1; // loop bodies never fit
        let tiny = run(App::MiniBude, WorkloadScale::Tiny, &c, &m);
        c.fetch_block_bytes = 256;
        let wide = run(App::MiniBude, WorkloadScale::Tiny, &c, &m);
        assert!(
            wide.cycles < tiny.cycles,
            "wide fetch {} !< tiny fetch {}",
            wide.cycles,
            tiny.cycles
        );
        // With a loop buffer large enough for the inner body, the tiny
        // fetch block stops mattering.
        c.fetch_block_bytes = 4;
        c.loop_buffer_size = 128;
        let buffered = run(App::MiniBude, WorkloadScale::Tiny, &c, &m);
        assert!(
            buffered.cycles < tiny.cycles,
            "loop buffer {} !< no loop buffer {}",
            buffered.cycles,
            tiny.cycles
        );
        assert!(buffered.stalls.loop_buffer_cycles > 0);
    }

    #[test]
    fn slow_l1_hurts_tealeaf() {
        // With a modest ROB the memory-level parallelism cannot hide the
        // L1 hit latency — the regime in which the paper finds L1
        // latency/clock dominating TeaLeaf. (Averaged over the sampled
        // design space, many configurations sit in this regime.)
        let (mut c, mut m) = tx2();
        c.rob_size = 16;
        m.l1_latency = 1;
        let fast = run(App::TeaLeaf, WorkloadScale::Small, &c, &m).cycles;
        m.l1_latency = 8;
        let slow = run(App::TeaLeaf, WorkloadScale::Small, &c, &m).cycles;
        assert!(
            slow > fast + fast / 10,
            "l1 lat 8 ({slow}) should hurt vs 1 ({fast})"
        );
    }

    #[test]
    fn hardware_proxy_diverges_from_default() {
        let (c, m) = tx2();
        let w = build_workload(App::Stream, WorkloadScale::Small, c.vector_length);
        let sim = simulate(&w.program, &c, &m);
        let hw = MultiCore::new(1, DEFAULT_BANKS)
            .run(&w.program, &c, &m, RunMode::Plain)
            .stats;
        assert!(hw.validated && sim.validated);
        assert_ne!(hw.cycles, sim.cycles);
    }

    #[test]
    fn commit_width_one_caps_ipc() {
        let (mut c, m) = tx2();
        c.commit_width = 1;
        let s = run(App::MiniBude, WorkloadScale::Tiny, &c, &m);
        assert!(
            s.ipc() <= 1.0 + 1e-9,
            "ipc {} exceeds commit width",
            s.ipc()
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_commits_in_program_order() {
        let (c, m) = tx2();
        let w = build_workload(App::Stream, WorkloadScale::Tiny, c.vector_length);
        let plain = simulate(&w.program, &c, &m);
        let (stats, trace) = MultiCore::IDEALIZED
            .run(&w.program, &c, &m, RunMode::Trace)
            .into_traced();
        assert_eq!(stats.cycles, plain.cycles, "tracing changed timing");
        assert_eq!(stats.retired, plain.retired);
        assert_eq!(trace.len() as u64, stats.retired);
        // The retirement stream is exactly the fetch (trace-cursor) order.
        let mut cursor = armdse_isa::TraceCursor::new(&w.program);
        for di in &trace {
            let exp = cursor.next_instr().expect("trace longer than program");
            assert_eq!(di.pc, exp.pc);
            assert_eq!(di.op, exp.op);
        }
        assert!(cursor.next_instr().is_none(), "trace shorter than program");
    }

    /// FNV-1a over the `Debug` rendering of every instruction of a
    /// stream, and its length.
    fn stream_digest(stream: impl Iterator<Item = armdse_isa::instr::DynInstr>) -> (u64, u64) {
        let mut h = armdse_memsim::fasthash::Fnv1a::new();
        let mut n = 0;
        for di in stream {
            h.bytes(format!("{di:?}").as_bytes());
            n += 1;
        }
        (h.finish(), n)
    }

    /// The core fetches compact slots and expands them only for the
    /// commit log: every app's slot stream, expanded, is the instruction
    /// stream the cursor produced when it built each instruction whole
    /// (digests pinned from that walk).
    #[test]
    fn fetch_slots_expand_to_every_apps_instruction_stream() {
        let mut digests = Vec::new();
        for scale in [WorkloadScale::Tiny, WorkloadScale::Small] {
            for vl in [128, 2048] {
                for app in App::ALL {
                    let w = build_workload(app, scale, vl);
                    let mut cursor = armdse_isa::TraceCursor::new(&w.program);
                    let slots = std::iter::from_fn(|| cursor.next_slot());
                    let expanded = slots.map(|s| s.instr(&w.program));
                    let digest = stream_digest(expanded);
                    assert_eq!(digest.1, w.program.dynamic_len(), "{app:?}");
                    digests.push(digest);
                }
            }
        }
        assert_eq!(digests, WHOLE_INSTRUCTION_DIGESTS);
    }

    /// `stream_digest` of each app's `TraceCursor::next_instr` stream
    /// when that method built every instruction whole, in the test's
    /// order: Tiny then Small, 128-bit then 2048-bit vectors, `App::ALL`.
    const WHOLE_INSTRUCTION_DIGESTS: [(u64, u64); 16] = [
        (7611514539334003363, 800),
        (11023990724585261380, 322),
        (14207187583750669619, 1078),
        (9728008896648114525, 318),
        (16441631358912844792, 50),
        (13637410054711668680, 82),
        (4224425391442738825, 966),
        (9728008896648114525, 318),
        (10701276101045105786, 12800),
        (1300045113804844301, 2434),
        (4338710820503815294, 14592),
        (12851733169446630399, 9386),
        (4651069356277616830, 800),
        (12009043908318464344, 154),
        (12463813986434843479, 13185),
        (12851733169446630399, 9386),
    ];

    #[test]
    fn no_run_hits_cycle_limit_on_sane_configs() {
        let (c, m) = tx2();
        for app in App::ALL {
            let s = run(app, WorkloadScale::Small, &c, &m);
            assert!(!s.hit_cycle_limit, "{app:?} wedged");
        }
    }
}
