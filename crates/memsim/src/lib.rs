//! # armdse-memsim — SST-like memory hierarchy simulator
//!
//! A request-level model of the paper's SST memory backend: an L1 data
//! cache and an L2 cache in front of DRAM, each in its own clock domain,
//! with line-granular transfers, true-LRU set-associative tag arrays,
//! write-back/write-allocate policy, a basic next-line prefetcher, and
//! merging of outstanding same-line requests.
//!
//! There is one hierarchy, [`Hierarchy`]: a private front (L1, merge
//! window, MSHR sampling, statistics, next-line prefetcher) over a
//! [`Backside`] (L2 tags and DRAM) that N fronts can share. One value
//! picks the DRAM policy (see `hierarchy.rs`):
//!
//! * **Infinite banks** — "SST models an infinite number of memory banks
//!   unless explicitly specified", so `Backside::shared(params, 0)`
//!   imposes no bandwidth limit *inside* the hierarchy: concurrency
//!   limits live in the core's load/store bandwidth and request-rate
//!   parameters. A request split over several cache lines completes when
//!   its slowest line does, but the line fetches proceed in parallel.
//! * **Finite banks** — `banks > 0` adds occupancy-based bank
//!   contention; one core over such a backside, with no prefetcher, is
//!   the "hardware proxy" of the Table I validation experiment (see
//!   DESIGN.md substitution table), and N cores over one are the
//!   multicore machine.
//!
//! One more behavioural point from the paper is modelled explicitly:
//! **cache-line width as bandwidth** — a wider line returns more bytes
//! for one request latency; the paper calls out that this is how the
//! Cache-Line-Width parameter acts as an L1↔L2↔RAM bandwidth knob.

#![warn(missing_docs)]

mod cache;
pub mod fasthash;
mod hierarchy;
mod params;
mod stats;

pub use cache::{Cache, LookupResult};
pub use hierarchy::{Backside, Hierarchy, DEFAULT_BANKS};
pub use params::MemParams;
pub use stats::MemStats;

/// Completion time (in core cycles) of a memory access.
pub(crate) type Cycle = u64;

/// Split a byte-range access `[addr, addr+bytes)` into the addresses of the
/// cache lines it touches.
///
/// The number of elements this yields is the number of memory requests the
/// access consumes — each counts against the core's permitted
/// requests-per-cycle and load/store bandwidth.
pub fn split_lines(addr: u64, bytes: u32, line_bytes: u32) -> impl Iterator<Item = u64> {
    debug_assert!(line_bytes.is_power_of_two());
    debug_assert!(bytes > 0);
    let lb = u64::from(line_bytes);
    let first = addr & !(lb - 1);
    let last = (addr + u64::from(bytes) - 1) & !(lb - 1);
    (0..=(last - first) / lb).map(move |i| first + i * lb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_single_line() {
        let v: Vec<u64> = split_lines(0x1000, 8, 64).collect();
        assert_eq!(v, vec![0x1000]);
    }

    #[test]
    fn split_aligned_multi_line() {
        let v: Vec<u64> = split_lines(0x1000, 256, 64).collect();
        assert_eq!(v, vec![0x1000, 0x1040, 0x1080, 0x10c0]);
    }

    #[test]
    fn split_unaligned_straddles() {
        // 8 bytes starting 4 before a line boundary touch two lines.
        let v: Vec<u64> = split_lines(0x103c, 8, 64).collect();
        assert_eq!(v, vec![0x1000, 0x1040]);
    }

    #[test]
    fn split_one_byte() {
        let v: Vec<u64> = split_lines(0x10ff, 1, 64).collect();
        assert_eq!(v, vec![0x10c0]);
    }

    #[test]
    fn split_wide_vector_narrow_line() {
        // 256-byte (2048-bit) vector over 16-byte lines: 16 requests.
        assert_eq!(split_lines(0, 256, 16).count(), 16);
    }
}
