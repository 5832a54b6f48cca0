//! Architectural register classes.
//!
//! The paper's design space varies four physical register files (Table II):
//! general-purpose, floating-point/SVE, SVE predicate, and condition
//! registers. Register renaming in the core model allocates physical
//! registers per class, so instructions carry architectural register
//! operands tagged with their class.

/// The four architectural register classes renamed by the core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// 64-bit general-purpose registers `x0..x30` (31 renameable; `sp`/`xzr`
    /// are not renamed).
    Gp,
    /// Scalable vector registers `z0..z31`; the low 128 bits alias the NEON
    /// `v` registers and the scalar FP `d`/`s` registers, so scalar FP and
    /// vector code share this file — exactly why the paper's
    /// "Floating-Point (FP)/SVE Registers" is a single parameter.
    Fp,
    /// SVE predicate registers `p0..p15`.
    Pred,
    /// Condition flags (NZCV), modelled as a renameable single-register
    /// class as SimEng does.
    Cond,
}

impl RegClass {
    /// All classes, in a fixed order usable for per-class arrays.
    pub const ALL: [RegClass; 4] = [RegClass::Gp, RegClass::Fp, RegClass::Pred, RegClass::Cond];

    /// Number of architectural registers in this class.
    ///
    /// These are the floors below which a physical register file cannot
    /// function: the paper's ranges start at 38 for GP/FP (32 architectural
    /// + headroom), 24 for predicate, and 8 for condition registers.
    #[inline]
    pub fn arch_count(self) -> u16 {
        match self {
            RegClass::Gp => 32,
            RegClass::Fp => 32,
            RegClass::Pred => 17, // p0..p15 + FFR
            RegClass::Cond => 1,
        }
    }

    /// Index of this class into a 4-element per-class array.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Gp => 0,
            RegClass::Fp => 1,
            RegClass::Pred => 2,
            RegClass::Cond => 3,
        }
    }

    /// Short human-readable tag used in statistics output.
    pub fn tag(self) -> &'static str {
        match self {
            RegClass::Gp => "gp",
            RegClass::Fp => "fp",
            RegClass::Pred => "pred",
            RegClass::Cond => "cond",
        }
    }
}

/// An architectural register operand: a class plus an index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg {
    /// Register class.
    pub class: RegClass,
    /// Architectural index within the class (`< class.arch_count()`).
    pub index: u8,
}

impl Reg {
    /// General-purpose register `x{i}`.
    #[inline]
    pub const fn gp(i: u8) -> Reg {
        Reg {
            class: RegClass::Gp,
            index: i,
        }
    }

    /// FP/SVE register `z{i}` (aliasing `d{i}`/`v{i}`).
    #[inline]
    pub const fn fp(i: u8) -> Reg {
        Reg {
            class: RegClass::Fp,
            index: i,
        }
    }

    /// Predicate register `p{i}`.
    #[inline]
    pub const fn pred(i: u8) -> Reg {
        Reg {
            class: RegClass::Pred,
            index: i,
        }
    }

    /// The NZCV condition flags register.
    #[inline]
    pub const fn nzcv() -> Reg {
        Reg {
            class: RegClass::Cond,
            index: 0,
        }
    }

    /// Whether the index is valid for the class.
    #[inline]
    pub(crate) fn is_valid(self) -> bool {
        u16::from(self.index) < self.class.arch_count()
    }
}

/// A fixed-capacity operand list (avoids heap allocation on the hot path).
///
/// Arm instructions have at most two destinations (e.g. load-pair) and in
/// practice at most four sources (FMA with governing predicate reads three
/// registers plus the predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegList {
    regs: [Reg; 4],
    len: u8,
}

impl RegList {
    /// Empty list.
    #[inline]
    pub const fn empty() -> RegList {
        RegList {
            regs: [Reg::gp(0); 4],
            len: 0,
        }
    }

    /// Build from a slice (panics if longer than 4).
    pub fn from_slice(s: &[Reg]) -> RegList {
        assert!(s.len() <= 4, "operand list longer than 4");
        let mut l = RegList::empty();
        for &r in s {
            l.push(r);
        }
        l
    }

    /// Append a register (panics when full).
    #[inline]
    pub(crate) fn push(&mut self, r: Reg) {
        assert!((self.len as usize) < 4, "operand list overflow");
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    /// Registers as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Reg] {
        &self.regs[..self.len as usize]
    }

    /// Number of operands.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Iterate over the operands.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.as_slice().iter().copied()
    }
}

impl Default for RegList {
    fn default() -> Self {
        RegList::empty()
    }
}

impl<'a> IntoIterator for &'a RegList {
    type Item = Reg;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Reg>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_counts_cover_isa() {
        assert_eq!(RegClass::Gp.arch_count(), 32);
        assert_eq!(RegClass::Fp.arch_count(), 32);
        assert_eq!(RegClass::Pred.arch_count(), 17);
        assert_eq!(RegClass::Cond.arch_count(), 1);
    }

    #[test]
    fn class_indices_are_distinct_and_dense() {
        let mut seen = [false; 4];
        for c in RegClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reg_constructors() {
        assert_eq!(
            Reg::gp(5),
            Reg {
                class: RegClass::Gp,
                index: 5
            }
        );
        assert_eq!(
            Reg::fp(31),
            Reg {
                class: RegClass::Fp,
                index: 31
            }
        );
        assert_eq!(
            Reg::pred(0),
            Reg {
                class: RegClass::Pred,
                index: 0
            }
        );
        assert_eq!(Reg::nzcv().class, RegClass::Cond);
        assert!(Reg::gp(31).is_valid());
        assert!(!Reg::fp(32).is_valid());
        assert!(Reg::pred(16).is_valid()); // FFR
        assert!(!Reg::pred(17).is_valid());
    }

    #[test]
    fn reglist_push_and_iterate() {
        let mut l = RegList::empty();
        assert_eq!(l.len(), 0);
        l.push(Reg::gp(1));
        l.push(Reg::fp(2));
        l.push(Reg::pred(3));
        assert_eq!(l.len(), 3);
        let v: Vec<Reg> = l.iter().collect();
        assert_eq!(v, vec![Reg::gp(1), Reg::fp(2), Reg::pred(3)]);
    }

    #[test]
    fn reglist_from_slice_roundtrip() {
        let regs = [Reg::gp(0), Reg::gp(1), Reg::fp(0), Reg::nzcv()];
        let l = RegList::from_slice(&regs);
        assert_eq!(l.as_slice(), &regs);
    }

    #[test]
    #[should_panic(expected = "operand list overflow")]
    fn reglist_overflow_panics() {
        let mut l = RegList::from_slice(&[Reg::gp(0); 4]);
        l.push(Reg::gp(1));
    }
}
