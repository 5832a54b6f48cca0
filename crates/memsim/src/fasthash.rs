//! Minimal multiplicative hasher for integer-keyed hot-path maps, and
//! the workspace's one FNV-1a ([`Fnv1a`]) for stable fingerprints.
//!
//! The hierarchy's miss-status (`in_flight`) maps are keyed by line
//! addresses and probed on every memory request; the standard library's
//! default SipHash is DoS-resistant but costs tens of nanoseconds per
//! probe, which is pure overhead for simulator-internal keys that no
//! adversary controls. This hasher is a single multiply + rotate in the
//! spirit of FxHash/fxhash, implemented in-tree to avoid a dependency.
//!
//! Map iteration order changes relative to (randomly seeded) SipHash,
//! but becomes *deterministic* across runs; callers must still avoid
//! order-dependent iteration, as they already did under `RandomState`.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` state plugging [`FastHasher`] in for `RandomState`.
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`]; drop-in for integer-keyed maps.
pub(crate) type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// Word-at-a-time multiplicative hasher (not collision-resistant;
/// only for simulator-internal integer keys).
#[derive(Debug, Default, Clone)]
pub(crate) struct FastHasher(u64);

/// Odd multiplier close to 2^64 / φ, spreading low-entropy keys
/// (line addresses share alignment bits) across the hash range.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Byte-slice fallback (unused on the hot path): fold in 8-byte
        // chunks so prefix keys still diffuse.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K).rotate_left(26);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// Incremental 64-bit FNV-1a: the workspace's one stable fingerprint
/// hash (plan fingerprints in checkpoints, run-memo keys). Unlike
/// `FastHasher` its values are persisted and compared across runs, so
/// the function must never change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv1a {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feed a word as its eight little-endian bytes.
    #[cfg(test)]
    pub(crate) fn u64(&mut self, v: u64) -> &mut Fnv1a {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        // The published FNV-1a 64-bit test vectors.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv1a::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        // Words are fed little-endian, and feeds chain.
        assert_eq!(
            Fnv1a::new().u64(0x7261_626f_6f66).finish(),
            Fnv1a::new().bytes(b"foobar\0\0").finish()
        );
        assert_eq!(
            Fnv1a::new().bytes(b"foo").bytes(b"bar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        m.retain(|_, v| *v % 2 == 0);
        assert_eq!(m.len(), 500);
    }

    #[test]
    fn aligned_keys_spread() {
        // Line addresses are 64-byte aligned; the hash must not collapse
        // onto a few buckets. Check low-bit diversity of the hashes.
        use std::hash::BuildHasher;
        let bh = FastBuildHasher::default();
        let mut low_bits = std::collections::HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(bh.hash_one(i * 64) & 0xFF);
        }
        assert!(
            low_bits.len() > 128,
            "only {} distinct buckets",
            low_bits.len()
        );
    }
}
