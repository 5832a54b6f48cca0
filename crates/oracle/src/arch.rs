//! Value-semantics architectural state.
//!
//! The core model schedules micro-ops but computes no data values, so
//! "architectural state must match" cannot be checked by reading the
//! simulator's registers. Instead the oracle assigns every instruction a
//! *deterministic value semantics*: the value an instruction produces is a
//! strong hash of its operation, PC, source-register values, and (for
//! loads) the memory words it reads. Stores write hash-derived values to
//! the words they touch; branches fold their outcome into a control-flow
//! hash.
//!
//! Applying this semantics to two instruction streams yields identical
//! final state *iff* the streams agree instruction-by-instruction on
//! operation, operands, resolved addresses, branch outcomes, and order —
//! any divergence avalanches through the hashes. The reference
//! interpreter applies it while walking the kernel IR tree; the
//! differential check applies it to the out-of-order core's commit log
//! and to the trace cursor's stream, and compares the three states.

use armdse_isa::instr::{DynInstr, MemKind, MemPattern, MemRef};
use armdse_isa::reg::{Reg, RegClass};
use std::collections::HashMap;

/// Memory word size of the value model in bytes. Sub-word accesses are
/// modelled at word granularity: any store to a word replaces the whole
/// word value. Both sides of every comparison use the same granularity,
/// so this coarsening costs no discriminating power for whole-stream
/// equality.
pub(crate) const WORD_BYTES: u64 = 8;

/// SplitMix64 finaliser: a fast, high-quality 64-bit mixing permutation.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold `v` into running hash `h`.
#[inline]
fn fold(h: u64, v: u64) -> u64 {
    mix64(h ^ v)
}

/// Architectural machine state under the oracle's value semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Register values per class (indexed by `RegClass::index()`, then by
    /// architectural register index).
    regs: [Vec<u64>; 4],
    /// Sparse word-granular memory: 8-byte-aligned address → value.
    /// Unwritten words hold [`ArchState::initial_word`].
    mem: HashMap<u64, u64>,
    /// Control-flow hash folding every executed branch's (PC, taken,
    /// target) in order.
    ctrl: u64,
    /// Instructions applied so far.
    retired: u64,
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new()
    }
}

impl ArchState {
    /// Reset state: every register holds a deterministic per-register
    /// initial value, memory holds deterministic per-word initial values.
    pub fn new() -> ArchState {
        let file = |class: RegClass| {
            (0..class.arch_count())
                .map(|i| mix64(0xA11C_0000 ^ ((class.index() as u64) << 32) ^ u64::from(i)))
                .collect()
        };
        ArchState {
            regs: [
                file(RegClass::Gp),
                file(RegClass::Fp),
                file(RegClass::Pred),
                file(RegClass::Cond),
            ],
            mem: HashMap::new(),
            ctrl: 0x5EED_0000,
            retired: 0,
        }
    }

    /// Deterministic initial value of the word at `word_addr`.
    #[inline]
    fn initial_word(word_addr: u64) -> u64 {
        mix64(0x4D45_4D00 ^ word_addr)
    }

    /// Current value of a register.
    #[inline]
    pub(crate) fn reg(&self, r: Reg) -> u64 {
        self.regs[r.class.index()][r.index as usize]
    }

    /// Current value of the (aligned) word containing `addr`.
    #[inline]
    pub(crate) fn word(&self, addr: u64) -> u64 {
        let w = addr & !(WORD_BYTES - 1);
        *self.mem.get(&w).unwrap_or(&Self::initial_word(w))
    }

    /// Instructions applied so far.
    #[inline]
    pub(crate) fn retired(&self) -> u64 {
        self.retired
    }

    /// Number of distinct memory words written.
    #[cfg(test)]
    fn words_written(&self) -> usize {
        self.mem.len()
    }

    /// Word-aligned addresses a memory reference touches, in access order.
    fn touched_words(m: &MemRef) -> Vec<u64> {
        let mut words = Vec::new();
        let mut push_span = |lo: u64, bytes: u64| {
            let mut w = lo & !(WORD_BYTES - 1);
            let end = lo + bytes;
            while w < end {
                if words.last() != Some(&w) {
                    words.push(w);
                }
                w += WORD_BYTES;
            }
        };
        match m.pattern {
            MemPattern::Contiguous => push_span(m.addr, u64::from(m.bytes)),
            MemPattern::Strided {
                elem_bytes,
                stride,
                count,
            } => {
                for k in 0..i64::from(count) {
                    let a = (m.addr as i64 + stride * k) as u64;
                    push_span(a, u64::from(elem_bytes));
                }
            }
        }
        words
    }

    /// Apply one retired instruction to the state.
    pub fn apply(&mut self, di: &DynInstr) {
        // Gather the input hash: op, PC, source values, loaded words.
        let mut h = fold(di.pc, di.op.index() as u64);
        for s in di.srcs.iter() {
            h = fold(h, self.reg(s));
        }
        if let Some(m) = di.mem {
            h = fold(h, m.addr);
            if m.kind == MemKind::Load {
                for w in Self::touched_words(&m) {
                    h = fold(h, self.word(w));
                }
            }
        }
        let result = mix64(h);

        // Effects: stores write word values, destinations take register
        // values, branches extend the control-flow hash.
        if let Some(m) = di.mem {
            if m.kind == MemKind::Store {
                for w in Self::touched_words(&m) {
                    self.mem.insert(w, fold(result, w));
                }
            }
        }
        for (i, d) in di.dests.iter().enumerate() {
            self.regs[d.class.index()][d.index as usize] = fold(result, i as u64);
        }
        if let Some(b) = di.branch {
            self.ctrl = fold(self.ctrl, fold(b.target, u64::from(b.taken)));
        }
        self.retired += 1;
    }

    /// Apply a whole instruction stream.
    #[cfg(test)]
    pub(crate) fn apply_all<'a>(&mut self, stream: impl IntoIterator<Item = &'a DynInstr>) {
        for di in stream {
            self.apply(di);
        }
    }

    /// Order-independent digest of the full state (registers, written
    /// memory, control-flow hash, retired count) for compact reporting.
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = fold(0xF17E_0000, self.retired);
        for file in &self.regs {
            for &v in file {
                h = fold(h, v);
            }
        }
        // XOR-combine per-word digests so iteration order is irrelevant.
        let mut mem_digest = 0u64;
        for (&w, &v) in &self.mem {
            mem_digest ^= mix64(fold(w, v));
        }
        fold(fold(h, mem_digest), self.ctrl)
    }

    /// Human-readable description of the first difference against
    /// `other`, or `None` when the states are identical.
    pub fn diff(&self, other: &ArchState) -> Option<String> {
        if self.retired != other.retired {
            return Some(format!(
                "retired counts differ: {} vs {}",
                self.retired, other.retired
            ));
        }
        if self.ctrl != other.ctrl {
            return Some("control-flow hashes differ".into());
        }
        for class in RegClass::ALL {
            let (a, b) = (&self.regs[class.index()], &other.regs[class.index()]);
            if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
                return Some(format!(
                    "register {}{i} differs: {:#x} vs {:#x}",
                    class.tag(),
                    a[i],
                    b[i]
                ));
            }
        }
        if self.mem != other.mem {
            let mut words: Vec<u64> = self.mem.keys().chain(other.mem.keys()).copied().collect();
            words.sort_unstable();
            words.dedup();
            for w in words {
                if self.word(w) != other.word(w) {
                    return Some(format!(
                        "memory word {w:#x} differs: {:#x} vs {:#x}",
                        self.word(w),
                        other.word(w)
                    ));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::instr::BranchInfo;
    use armdse_isa::op::OpClass;
    use armdse_isa::reg::RegList;

    fn alu(pc: u64, dest: Reg, srcs: &[Reg]) -> DynInstr {
        DynInstr {
            pc,
            op: OpClass::IntAlu,
            dests: RegList::from_slice(&[dest]),
            srcs: RegList::from_slice(srcs),
            mem: None,
            branch: None,
        }
    }

    fn store(pc: u64, addr: u64, bytes: u32) -> DynInstr {
        DynInstr {
            pc,
            op: OpClass::Store,
            dests: RegList::empty(),
            srcs: RegList::from_slice(&[Reg::gp(1)]),
            mem: Some(MemRef {
                addr,
                bytes,
                kind: MemKind::Store,
                pattern: MemPattern::Contiguous,
            }),
            branch: None,
        }
    }

    fn load(pc: u64, addr: u64, bytes: u32) -> DynInstr {
        DynInstr {
            pc,
            op: OpClass::Load,
            dests: RegList::from_slice(&[Reg::gp(2)]),
            srcs: RegList::from_slice(&[Reg::gp(1)]),
            mem: Some(MemRef {
                addr,
                bytes,
                kind: MemKind::Load,
                pattern: MemPattern::Contiguous,
            }),
            branch: None,
        }
    }

    #[test]
    fn fresh_states_are_equal_and_deterministic() {
        let a = ArchState::new();
        let b = ArchState::new();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.reg(Reg::gp(0)), a.reg(Reg::gp(1)));
        assert_ne!(a.word(0x1000), a.word(0x1008));
    }

    #[test]
    fn same_stream_same_state() {
        let stream = vec![
            alu(0x100, Reg::gp(3), &[Reg::gp(1), Reg::gp(2)]),
            store(0x104, 0x2000, 8),
            load(0x108, 0x2000, 8),
        ];
        let mut a = ArchState::new();
        let mut b = ArchState::new();
        a.apply_all(&stream);
        b.apply_all(&stream);
        assert_eq!(a, b);
        assert!(a.diff(&b).is_none());
    }

    #[test]
    fn reordered_aliasing_stores_diverge() {
        let s1 = store(0x100, 0x2000, 8);
        let s2 = store(0x104, 0x2000, 8);
        let mut fwd = ArchState::new();
        fwd.apply_all([&s1, &s2]);
        let mut rev = ArchState::new();
        rev.apply_all([&s2, &s1]);
        assert_ne!(fwd, rev, "aliasing store order must be visible");
        assert!(fwd.diff(&rev).is_some());
    }

    #[test]
    fn load_sees_prior_store() {
        let mut with_store = ArchState::new();
        with_store.apply(&store(0x100, 0x2000, 8));
        with_store.apply(&load(0x104, 0x2000, 8));
        let mut without = ArchState::new();
        without.apply(&load(0x104, 0x2000, 8));
        assert_ne!(
            with_store.reg(Reg::gp(2)),
            without.reg(Reg::gp(2)),
            "loaded value must depend on memory contents"
        );
    }

    #[test]
    fn branch_outcome_feeds_control_hash() {
        let br = |taken| DynInstr {
            pc: 0x100,
            op: OpClass::Branch,
            dests: RegList::empty(),
            srcs: RegList::from_slice(&[Reg::nzcv()]),
            mem: None,
            branch: Some(BranchInfo {
                taken,
                target: 0x80,
            }),
        };
        let mut t = ArchState::new();
        t.apply(&br(true));
        let mut n = ArchState::new();
        n.apply(&br(false));
        assert_ne!(t, n);
        assert_eq!(t.diff(&n).unwrap(), "control-flow hashes differ");
    }

    #[test]
    fn strided_access_touches_each_element_word() {
        let gather = DynInstr {
            pc: 0x100,
            op: OpClass::VecGather,
            dests: RegList::from_slice(&[Reg::fp(0)]),
            srcs: RegList::from_slice(&[Reg::gp(1)]),
            mem: Some(MemRef {
                addr: 0x3000,
                bytes: 32,
                kind: MemKind::Store,
                pattern: MemPattern::Strided {
                    elem_bytes: 8,
                    stride: 64,
                    count: 4,
                },
            }),
            branch: None,
        };
        let mut s = ArchState::new();
        s.apply(&gather);
        assert_eq!(s.words_written(), 4);
        for k in 0..4u64 {
            assert_ne!(
                s.word(0x3000 + 64 * k),
                ArchState::initial_word(0x3000 + 64 * k)
            );
        }
    }

    #[test]
    fn sub_word_stores_modelled_at_word_granularity() {
        let mut s = ArchState::new();
        s.apply(&store(0x100, 0x2004, 4)); // unaligned 4-byte store
        assert_eq!(s.words_written(), 1);
        assert_ne!(s.word(0x2000), ArchState::initial_word(0x2000));
    }
}
