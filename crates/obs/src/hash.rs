//! A cheap hasher for the id-keyed maps on the submit → round → reply path:
//! the scheduler's pending and history stores, its lock index and
//! qualifier caches, the shard worker's ticket map, the completion hub and
//! the router's homes map — plus instrumentation maps such as the
//! per-request submission-round map behind `RoundDeferred`.
//!
//! SipHash — the std `HashMap` default — is keyed and DoS-resistant, which
//! matters for maps fed attacker-controlled strings and not at all for
//! maps keyed by scheduler-assigned transaction/request ids.  On a
//! scheduling round the SipHash rounds cost more than the bookkeeping the
//! lookup supports, so these maps use this multiply-xor mixer instead.
//!
//! **Trust assumption.**  Every key hashed here — transaction ids, intra
//! positions, object ids, hub tokens — comes from in-process clients of the
//! library (or is assigned by it).  The mixer is unkeyed, so a client that
//! chooses its ids adversarially can make them collide and degrade every
//! map to a linear scan.  A network front door (parked in the roadmap)
//! hands id choice to remote parties and must revisit this: seed the mixer
//! per process (a keyed `BuildHasher`) or remap external ids first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor [`Hasher`] for machine-generated integer ids.  **Not** for
/// externally controlled keys: it has no DoS resistance.
#[derive(Default)]
pub struct FastIdHasher(u64);

/// [`std::hash::BuildHasher`] plugging [`FastIdHasher`] into a
/// `HashMap`/`HashSet` type.
pub type FastIdBuildHasher = BuildHasherDefault<FastIdHasher>;

/// A `HashMap` keyed by ids, hashed with [`FastIdHasher`].
pub type FastIdMap<K, V> = HashMap<K, V, FastIdBuildHasher>;

/// A `HashSet` of ids, hashed with [`FastIdHasher`].
pub type FastIdSet<K> = HashSet<K, FastIdBuildHasher>;

impl Hasher for FastIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Byte-wise FNV-1a fallback for derived fields that are not plain
        // integers; id keys never take this path.
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // One golden-ratio multiply plus a fold: enough mixing to spread
        // sequential ids across buckets.
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sequential_ids_spread_and_round_trip() {
        let mut map: HashMap<(u64, u32), u64, FastIdBuildHasher> = HashMap::default();
        for ta in 0..1000u64 {
            map.insert((ta, 0), ta);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&(617, 0)), Some(&617));
        assert_eq!(map.get(&(617, 1)), None);
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        let hash = |ta: u64, intra: u32| {
            let mut hasher = FastIdHasher::default();
            hasher.write_u64(ta);
            hasher.write_u32(intra);
            hasher.finish()
        };
        let mut seen = std::collections::HashSet::new();
        for ta in 0..4096u64 {
            for intra in 0..4u32 {
                seen.insert(hash(ta, intra));
            }
        }
        assert_eq!(seen.len(), 4096 * 4, "no collisions on a dense id grid");
    }
}
