//! Consistent hashing with virtual-node tokens, driven by the view.
//!
//! Same construction as Dynamo's DHT: each member hashes to `vnodes`
//! positions on a `u64` ring, a key is owned by the first `n` distinct
//! members clockwise from its hash. Virtual nodes smooth the load and —
//! the property the resize protocol leans on — bound the disruption of
//! a membership change: adding or removing one member of `n` moves
//! about `1/n` of the key space and leaves every other key's owner set
//! untouched. The token positions are a pure function of `(member id,
//! vnode index)`, so every replica that agrees on the member set agrees
//! on the whole ring without exchanging tokens.

use std::collections::BTreeMap;

use crate::view::{MemberId, MembershipView};

/// FNV-1a over `key`, finished with a 64-bit avalanche mix. The FNV
/// prime walks the bytes cheaply; the finalizer (splitmix64's) spreads
/// consecutive ids across the whole ring instead of clustering them.
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

fn token_position(member: MemberId, vnode: u32) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..4].copy_from_slice(&member.to_le_bytes());
    bytes[4..].copy_from_slice(&vnode.to_le_bytes());
    hash_key(&bytes)
}

/// The consistent-hash ring: token position → owning member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    tokens: BTreeMap<u64, MemberId>,
    vnodes_per_member: u32,
    members: u32,
}

impl HashRing {
    /// A ring over members `0..n_members`, each with `vnodes` tokens
    /// (the fixed-cluster constructor the harnesses start from).
    pub fn new(n_members: u32, vnodes: u32) -> Self {
        let mut ring = HashRing::empty(vnodes);
        for m in 0..n_members {
            ring.add_member(m, 0);
        }
        ring
    }

    /// A ring with no members yet.
    pub fn empty(vnodes: u32) -> Self {
        HashRing { tokens: BTreeMap::new(), vnodes_per_member: vnodes.max(1), members: 0 }
    }

    /// The ring `view` currently prescribes: every member whose status
    /// is in-ring, with its record's token count (`0` → `vnodes`).
    pub fn from_view(view: &MembershipView, vnodes: u32) -> Self {
        let mut ring = HashRing::empty(vnodes);
        for (id, rec) in view.ring_members() {
            ring.add_member(id, rec.tokens);
        }
        ring
    }

    /// Add `member` with `tokens` virtual nodes (`0` → the default).
    /// Idempotent: re-adding re-inserts the same positions.
    pub fn add_member(&mut self, member: MemberId, tokens: u32) {
        let tokens = if tokens == 0 { self.vnodes_per_member } else { tokens };
        for v in 0..tokens {
            self.tokens.entry(token_position(member, v)).or_insert(member);
        }
        self.recount();
    }

    /// Remove every token `member` holds.
    pub fn remove_member(&mut self, member: MemberId) {
        self.tokens.retain(|_, m| *m != member);
        self.recount();
    }

    fn recount(&mut self) {
        let mut seen: Vec<MemberId> = self.tokens.values().copied().collect();
        seen.sort_unstable();
        seen.dedup();
        self.members = seen.len() as u32;
    }

    /// Number of distinct members on the ring.
    pub fn len(&self) -> usize {
        self.members as usize
    }

    /// Whether the ring holds no members.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether `member` holds any token.
    pub fn contains(&self, member: MemberId) -> bool {
        self.tokens.values().any(|&m| m == member)
    }

    /// The first `n` **distinct** members clockwise from `key`'s hash —
    /// the key's owner set (coordinator first).
    pub fn preference_list(&self, key: u64, n: usize) -> Vec<MemberId> {
        let h = hash_key(&key.to_le_bytes());
        let mut out = Vec::with_capacity(n.min(self.members as usize));
        for (_, &m) in self.tokens.range(h..).chain(self.tokens.range(..h)) {
            if !out.contains(&m) {
                out.push(m);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }

    /// The key's primary owner.
    pub fn coordinator(&self, key: u64) -> Option<MemberId> {
        self.preference_list(key, 1).first().copied()
    }

    /// A digest of the token map: changes iff the ring's shape changes.
    pub fn version(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.tokens.len() * 12);
        for (pos, m) in &self.tokens {
            bytes.extend_from_slice(&pos.to_le_bytes());
            bytes.extend_from_slice(&m.to_le_bytes());
        }
        hash_key(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{MemberRecord, MemberStatus};

    #[test]
    fn preference_list_is_distinct_and_sized() {
        let ring = HashRing::new(5, 64);
        for key in 0..200u64 {
            let prefs = ring.preference_list(key, 3);
            assert_eq!(prefs.len(), 3);
            let mut d = prefs.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "duplicates in {prefs:?}");
        }
    }

    #[test]
    fn short_rings_return_everyone() {
        let ring = HashRing::new(2, 16);
        assert_eq!(ring.preference_list(42, 5).len(), 2);
    }

    #[test]
    fn load_spreads_across_members() {
        let ring = HashRing::new(4, 128);
        let mut counts = [0usize; 4];
        for key in 0..4000u64 {
            counts[ring.coordinator(key).unwrap() as usize] += 1;
        }
        for c in counts {
            assert!((500..2000).contains(&c), "coordinator load skewed: {counts:?}");
        }
    }

    #[test]
    fn len_tracks_membership() {
        let mut ring = HashRing::new(3, 8);
        assert_eq!(ring.len(), 3);
        ring.remove_member(1);
        assert_eq!(ring.len(), 2);
        ring.add_member(7, 0);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_is_a_pure_function_of_the_member_set() {
        let a = HashRing::new(6, 32);
        let mut b = HashRing::empty(32);
        for m in (0..6).rev() {
            b.add_member(m, 0);
        }
        assert_eq!(a, b, "insertion order is irrelevant");
        assert_eq!(a.version(), b.version());
    }

    #[test]
    fn from_view_excludes_down_and_leaving_members() {
        let mut view = MembershipView::new();
        for m in 0..4u32 {
            view.observe(
                m,
                MemberRecord {
                    status: MemberStatus::Up,
                    incarnation: 1,
                    node: m as u64,
                    tokens: 0,
                },
            );
        }
        view.advance(2, MemberStatus::Leaving);
        view.suspect(3);
        let ring = HashRing::from_view(&view, 16);
        assert_eq!(ring.len(), 2);
        assert!(ring.contains(0) && ring.contains(1));
        assert!(!ring.contains(2) && !ring.contains(3));
    }

    #[test]
    fn join_moves_a_bounded_slice_of_keys() {
        let before = HashRing::new(5, 64);
        let mut after = before.clone();
        after.add_member(5, 0);
        let keys = 4000u64;
        let moved =
            (0..keys).filter(|k| before.coordinator(*k) != after.coordinator(*k)).count() as u64;
        // Expected ≈ keys/6; allow 2× slack for hash variance.
        assert!(moved <= keys / 3, "{moved} of {keys} primaries moved");
        assert!(moved > 0, "a join must move something");
    }

    #[test]
    fn remove_only_moves_the_removed_members_keys() {
        let before = HashRing::new(6, 64);
        let mut after = before.clone();
        after.remove_member(2);
        for k in 0..2000u64 {
            let b = before.coordinator(k).unwrap();
            if b != 2 {
                assert_eq!(after.coordinator(k), Some(b), "key {k} moved needlessly");
            } else {
                assert_ne!(after.coordinator(k), Some(2));
            }
        }
    }
}
