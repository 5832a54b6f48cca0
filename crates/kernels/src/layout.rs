//! Heap layout helpers shared by the workload generators.

use armdse_isa::kir::AddrExpr;

/// Base of the simulated data heap (clear of the code segment).
pub(crate) const HEAP_BASE: u64 = 0x1000_0000;

/// Alignment applied between consecutively allocated arrays, chosen larger
/// than any cache line in the design space so arrays never share a line.
pub(crate) const ARRAY_ALIGN: u64 = 4096;

/// A bump allocator handing out page-aligned array base addresses.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    next: u64,
}

impl Layout {
    /// Start a fresh layout at [`HEAP_BASE`].
    pub(crate) fn new() -> Layout {
        Layout { next: HEAP_BASE }
    }

    /// Allocate `bytes` and return the base address.
    pub(crate) fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        let aligned = bytes.div_ceil(ARRAY_ALIGN) * ARRAY_ALIGN;
        self.next += aligned.max(ARRAY_ALIGN);
        base
    }

    /// Allocate an array of `n` elements of `elem_bytes` each.
    pub(crate) fn alloc_array(&mut self, n: u64, elem_bytes: u64) -> u64 {
        self.alloc(n * elem_bytes)
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::new()
    }
}

/// Unit-stride access at `base + i * elem_bytes` over loop depth `depth`.
pub(crate) fn stream_addr(base: u64, depth: usize, step_bytes: u64) -> AddrExpr {
    AddrExpr::linear(base, depth, step_bytes as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut l = Layout::new();
        let a = l.alloc(100);
        let b = l.alloc(5000);
        let c = l.alloc(1);
        assert_eq!(a % ARRAY_ALIGN, 0);
        assert_eq!(b % ARRAY_ALIGN, 0);
        assert!(b >= a + ARRAY_ALIGN);
        assert!(c >= b + 5000);
    }

    #[test]
    fn stream_addr_strides() {
        let e = stream_addr(0x1000, 1, 64);
        assert_eq!(e.eval(&[9, 3]), 0x1000 + 3 * 64);
    }
}
