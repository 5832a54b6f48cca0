//! Register renaming: per-class physical register files with free lists,
//! ready bits, and waiter lists.

use armdse_isa::reg::{Reg, RegClass};
use std::cell::RefCell;

/// Sequence number of an in-flight micro-op (monotonic, program order).
pub(crate) type Seq = u64;

/// One class's physical register file.
#[derive(Debug, Clone, Default)]
struct ClassFile {
    /// Current architectural → physical mapping.
    map: Vec<u32>,
    /// Free physical registers.
    free: Vec<u32>,
    /// Ready bit per physical register (value produced).
    ready: Vec<bool>,
    /// Micro-ops waiting on each physical register (plus recycled spares).
    waiters: Vec<Vec<Seq>>,
}

impl ClassFile {
    /// Reset to `arch` registers mapped over `phys`, keeping capacity.
    fn reset(&mut self, arch: u32, phys: u32) {
        assert!(
            phys > arch,
            "physical file smaller than architectural state"
        );
        self.map.clear();
        self.map.extend(0..arch);
        self.free.clear();
        self.free.extend((arch..phys).rev());
        self.ready.clear();
        self.ready.resize(phys as usize, true);
        self.waiters.iter_mut().for_each(Vec::clear);
        let lists = self.waiters.len().max(phys as usize);
        self.waiters.resize_with(lists, Vec::new);
    }
}

thread_local! {
    /// Class files of this thread's dropped rename units.
    static FREE: RefCell<Vec<[ClassFile; 4]>> = const { RefCell::new(Vec::new()) };
}

/// The rename unit: all four class files.
#[derive(Debug, Clone)]
pub(crate) struct RenameUnit {
    files: [ClassFile; 4],
}

/// Result of renaming one destination operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RenamedDest {
    /// Register class.
    pub class: RegClass,
    /// Newly allocated physical register.
    pub phys: u32,
    /// Previous mapping of the architectural register (freed at commit).
    pub prev: u32,
}

impl RenameUnit {
    /// Build with per-class physical register counts
    /// (indexed by `RegClass::index()`).
    pub(crate) fn new(phys_counts: [u32; 4]) -> RenameUnit {
        let mut files: [ClassFile; 4] = FREE.with(|f| f.borrow_mut().pop()).unwrap_or_default();
        for (file, c) in files.iter_mut().zip(RegClass::ALL) {
            file.reset(u32::from(c.arch_count()), phys_counts[c.index()]);
        }
        RenameUnit { files }
    }

    /// The first register class (in index order) whose free list cannot
    /// cover `dests`; `None` when all of them can be renamed right now.
    #[inline]
    pub(crate) fn blocked_class(&self, dests: &[Reg]) -> Option<RegClass> {
        // Count needed per class (an instruction may have two dests of
        // different classes, e.g. `adds` writing GP + NZCV).
        let mut need = [0u32; 4];
        for d in dests {
            need[d.class.index()] += 1;
        }
        for (i, &n) in need.iter().enumerate() {
            if (self.files[i].free.len() as u32) < n {
                return Some(RegClass::ALL[i]);
            }
        }
        None
    }

    /// Rename one destination: allocate a physical register, remember the
    /// previous mapping, and mark the new register not-ready.
    pub(crate) fn rename_dest(&mut self, d: Reg) -> RenamedDest {
        let file = &mut self.files[d.class.index()];
        let phys = file.free.pop().expect("blocked_class checked");
        let prev = file.map[d.index as usize];
        file.map[d.index as usize] = phys;
        file.ready[phys as usize] = false;
        debug_assert!(file.waiters[phys as usize].is_empty());
        RenamedDest {
            class: d.class,
            phys,
            prev,
        }
    }

    /// Resolve a source operand: returns the physical register and whether
    /// its value is ready. If not ready, registers `seq` as a waiter.
    #[inline]
    pub(crate) fn resolve_src(&mut self, s: Reg, seq: Seq) -> (u32, bool) {
        let file = &mut self.files[s.class.index()];
        let phys = file.map[s.index as usize];
        let ready = file.ready[phys as usize];
        if !ready {
            file.waiters[phys as usize].push(seq);
        }
        (phys, ready)
    }

    /// Producer completed: mark ready and drain the waiter list.
    pub(crate) fn complete(&mut self, class: RegClass, phys: u32, woken: &mut Vec<Seq>) {
        let file = &mut self.files[class.index()];
        file.ready[phys as usize] = true;
        woken.append(&mut file.waiters[phys as usize]);
    }

    /// Commit-time free of the previous mapping.
    pub(crate) fn free_prev(&mut self, d: RenamedDest) {
        let file = &mut self.files[d.class.index()];
        debug_assert!(!file.free.contains(&d.prev), "double free of phys reg");
        file.waiters[d.prev as usize].clear();
        file.free.push(d.prev);
    }

    /// Free physical registers in a class (diagnostics / invariants).
    #[cfg(test)]
    fn free_count(&self, class: RegClass) -> usize {
        self.files[class.index()].free.len()
    }

    /// Invariant check: every physical register is exactly one of
    /// {mapped, free, in-flight-dest}. `in_flight` is the number of
    /// renamed-but-not-committed destinations in the class.
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn check_conservation(&self, class: RegClass, in_flight: usize) -> bool {
        let f = &self.files[class.index()];
        f.map.len() + f.free.len() + in_flight == f.ready.len()
    }

    /// Invariant check: a free physical register must carry a completed
    /// value (its last producer committed) and have no waiters, and no
    /// free register may still be architecturally mapped.
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn check_free_ready(&self, class: RegClass) -> bool {
        let f = &self.files[class.index()];
        f.free.iter().all(|&p| {
            f.ready[p as usize] && f.waiters[p as usize].is_empty() && !f.map.contains(&p)
        })
    }
}

impl Drop for RenameUnit {
    /// Give the class files to the thread; the next unit resets them.
    fn drop(&mut self) {
        let files = std::mem::take(&mut self.files);
        let _ = FREE.try_with(|f| f.borrow_mut().push(files));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armdse_isa::reg::Reg;

    fn unit() -> RenameUnit {
        RenameUnit::new([40, 40, 24, 8])
    }

    #[test]
    fn fresh_unit_sources_are_ready() {
        let mut u = unit();
        let (phys, ready) = u.resolve_src(Reg::gp(3), 0);
        assert_eq!(phys, 3);
        assert!(ready);
    }

    #[test]
    fn rename_creates_dependency() {
        let mut u = unit();
        let d = u.rename_dest(Reg::gp(3));
        assert_eq!(d.prev, 3);
        let (phys, ready) = u.resolve_src(Reg::gp(3), 7);
        assert_eq!(phys, d.phys);
        assert!(!ready);
        let mut woken = Vec::new();
        u.complete(RegClass::Gp, d.phys, &mut woken);
        assert_eq!(woken, vec![7]);
        let (_, ready2) = u.resolve_src(Reg::gp(3), 8);
        assert!(ready2);
    }

    #[test]
    fn free_list_exhaustion_stalls() {
        let mut u = unit();
        // 8 free GP regs (40 - 32). Allocate them all.
        let mut renames = Vec::new();
        for _ in 0..8 {
            assert_eq!(u.blocked_class(&[Reg::gp(0)]), None);
            renames.push(u.rename_dest(Reg::gp(0)));
        }
        assert_eq!(u.blocked_class(&[Reg::gp(0)]), Some(RegClass::Gp));
        // Committing the oldest rename frees its previous mapping.
        u.free_prev(renames.remove(0));
        assert_eq!(u.blocked_class(&[Reg::gp(0)]), None);
    }

    #[test]
    fn blocked_class_probe_is_read_only() {
        let mut u = unit();
        for _ in 0..8 {
            u.rename_dest(Reg::gp(0));
        }
        // Probing an exhausted class neither allocates nor frees.
        for _ in 0..2 {
            assert_eq!(u.blocked_class(&[Reg::gp(0)]), Some(RegClass::Gp));
            assert_eq!(u.free_count(RegClass::Gp), 0);
            assert_eq!(u.blocked_class(&[Reg::fp(0)]), None);
        }
    }

    #[test]
    fn multi_class_dest_requirement() {
        let mut u = RenameUnit::new([34, 40, 24, 2]);
        // Cond has 2 phys for 1 arch: one free.
        assert_eq!(u.blocked_class(&[Reg::gp(0), Reg::nzcv()]), None);
        let _g = u.rename_dest(Reg::gp(0));
        let _c = u.rename_dest(Reg::nzcv());
        // Cond free list now empty.
        assert_eq!(u.blocked_class(&[Reg::nzcv()]), Some(RegClass::Cond));
    }

    #[test]
    fn conservation_invariant() {
        let mut u = unit();
        let mut in_flight = Vec::new();
        for i in 0..5 {
            in_flight.push(u.rename_dest(Reg::gp(i)));
        }
        assert!(u.check_conservation(RegClass::Gp, in_flight.len()));
        for d in in_flight.drain(..) {
            u.free_prev(d);
        }
        assert!(u.check_conservation(RegClass::Gp, 0));
    }

    #[test]
    fn free_list_stays_clean_through_rename_cycle() {
        let mut u = unit();
        for c in RegClass::ALL {
            assert!(u.check_free_ready(c));
        }
        let d1 = u.rename_dest(Reg::gp(0));
        let d2 = u.rename_dest(Reg::gp(0));
        let mut woken = Vec::new();
        u.complete(RegClass::Gp, d1.phys, &mut woken);
        u.complete(RegClass::Gp, d2.phys, &mut woken);
        u.free_prev(d1);
        u.free_prev(d2);
        assert!(u.check_free_ready(RegClass::Gp));
        assert!(u.check_conservation(RegClass::Gp, 0));
    }

    #[test]
    fn waw_rename_chain_frees_correctly() {
        let mut u = unit();
        let d1 = u.rename_dest(Reg::fp(0));
        let d2 = u.rename_dest(Reg::fp(0));
        assert_eq!(d2.prev, d1.phys);
        let before = u.free_count(RegClass::Fp);
        u.free_prev(d1); // frees architectural phys 0
        u.free_prev(d2); // frees d1's phys
        assert_eq!(u.free_count(RegClass::Fp), before + 2);
    }
}
