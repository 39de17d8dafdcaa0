//! Property tests for the membership control plane: ring determinism,
//! bounded disruption on join and leave, merge-law certification over random
//! views, and the down-verdict lifecycle.

use crdt::{check_merge_laws, Crdt};
use membership::{HashRing, MemberRecord, MemberStatus, MembershipView};
use proptest::prelude::*;

fn status_from(rank: u8) -> MemberStatus {
    match rank % 4 {
        0 => MemberStatus::Joining,
        1 => MemberStatus::Up,
        2 => MemberStatus::Leaving,
        _ => MemberStatus::Down,
    }
}

/// A view sampled from `(member, rank, incarnation)` triples.
fn view_of(entries: &[(u8, u8, u8)]) -> MembershipView {
    let mut v = MembershipView::new();
    for &(m, rank, inc) in entries {
        let m = (m % 8) as u32;
        v.observe(
            m,
            MemberRecord {
                status: status_from(rank),
                incarnation: 1 + (inc % 4) as u64,
                node: m as u64,
                tokens: 0,
            },
        );
    }
    v
}

proptest! {
    /// Token assignment is deterministic: the ring (and every
    /// preference list) is a pure function of the member set, however
    /// that set was assembled.
    #[test]
    fn ring_tokens_deterministic(
        members in prop::collection::vec(0u32..32, 2..10),
        keys in prop::collection::vec(proptest::arbitrary::any::<u64>(), 1..20),
    ) {
        let mut uniq = members.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assume!(uniq.len() >= 2);
        let mut forward = HashRing::empty(32);
        for &m in &uniq {
            forward.add_member(m, 0);
        }
        let mut backward = HashRing::empty(32);
        for &m in uniq.iter().rev() {
            backward.add_member(m, 0);
        }
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(forward.version(), backward.version());
        for &k in &keys {
            prop_assert_eq!(forward.preference_list(k, 3), backward.preference_list(k, 3));
        }
    }

    /// Bounded disruption: joining the (n+1)-th member moves at most
    /// ⌈keys/n⌉ + slack primary assignments. Slack covers virtual-node
    /// hash variance (the expectation is keys/(n+1)).
    #[test]
    fn join_moves_at_most_its_share(n in 3u32..9, joiner in 100u32..200) {
        let keys: u64 = 2000;
        let before = HashRing::new(n, 64);
        let mut after = before.clone();
        after.add_member(joiner, 0);
        let moved = (0..keys)
            .filter(|k| before.coordinator(*k) != after.coordinator(*k))
            .count() as u64;
        let bound = keys.div_ceil(n as u64);
        let slack = bound / 2 + 50;
        prop_assert!(
            moved <= bound + slack,
            "join of 1 into {n} moved {moved} of {keys} keys (bound {bound} + slack {slack})"
        );
        // And every moved key moved *to* the joiner: nobody else's
        // ownership reshuffles.
        for k in 0..keys {
            if before.coordinator(k) != after.coordinator(k) {
                prop_assert_eq!(after.coordinator(k), Some(joiner));
            }
        }
    }

    /// Bounded disruption on leave: preference lists stay distinct, the
    /// removed member vanishes from every list, and a key whose list
    /// never named it keeps its coordinator.
    #[test]
    fn leave_remaps_minimally(keys in prop::collection::vec(any::<u64>(), 1..100)) {
        let before = HashRing::new(6, 64);
        let mut after = before.clone();
        after.remove_member(3);
        for key in keys {
            let pb = before.preference_list(key, 3);
            let pa = after.preference_list(key, 3);
            let mut dedup = pb.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), pb.len());
            prop_assert!(!pa.contains(&3));
            if !pb.contains(&3) {
                prop_assert_eq!(pa[0], pb[0]);
            }
        }
    }

    /// The view merge satisfies the ACID 2.0 lattice laws over random
    /// sample sets (the certification the tentpole promises).
    #[test]
    fn view_merge_laws(
        a in prop::collection::vec((0u8..8, 0u8..4, 0u8..4), 0..10),
        b in prop::collection::vec((0u8..8, 0u8..4, 0u8..4), 0..10),
        c in prop::collection::vec((0u8..8, 0u8..4, 0u8..4), 0..10),
    ) {
        let samples = vec![MembershipView::new(), view_of(&a), view_of(&b), view_of(&c)];
        if let Err(e) = check_merge_laws(&samples) {
            prop_assert!(false, "{e}");
        }
    }

    /// Remove + re-add with a bumped incarnation never resurrects a
    /// `down` verdict: once the member reincarnates, no replay of
    /// old-incarnation records (in any order) can take it down again.
    #[test]
    fn bumped_incarnation_buries_the_down_verdict(
        stale in prop::collection::vec((0u8..4, 0u8..2), 0..12),
        ranks in prop::collection::vec(0u8..4, 0..6),
    ) {
        let member = 3u32;
        let mut v = MembershipView::new();
        v.observe(
            member,
            MemberRecord { status: MemberStatus::Up, incarnation: 1, node: 3, tokens: 0 },
        );
        // The verdict: suspicion declares the member dead at inc 1.
        v.suspect(member);
        prop_assert_eq!(v.get(member).unwrap().status, MemberStatus::Down);
        // The member re-adds itself with a bumped incarnation.
        let new_inc = v.reincarnate(member, MemberStatus::Joining);
        prop_assert!(new_inc > 1);
        // Arbitrary stale gossip about the old life (any rank, any
        // incarnation ≤ 1), replayed in any order...
        for &(rank, inc) in &stale {
            let mut frag = MembershipView::new();
            frag.observe(
                member,
                MemberRecord {
                    status: status_from(rank),
                    incarnation: (inc % 2) as u64, // 0 or 1 — all stale
                    node: 3,
                    tokens: 0,
                },
            );
            v.merge(&frag);
            prop_assert!(v.get(member).unwrap().incarnation >= new_inc);
            prop_assert!(v.get(member).unwrap().status != MemberStatus::Down);
        }
        // ...and legitimate in-incarnation advances still work.
        for &rank in &ranks {
            let s = status_from(rank);
            if s.rank() > v.get(member).unwrap().status.rank() && s != MemberStatus::Down {
                v.advance(member, s);
            }
        }
        prop_assert!(v.get(member).unwrap().status != MemberStatus::Down);
    }
}
