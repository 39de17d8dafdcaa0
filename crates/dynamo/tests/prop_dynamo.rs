//! Property-based tests of the store's causal machinery: vector-clock
//! laws and dotted-version merge convergence. (The ring's properties
//! live with `membership::HashRing`.)

use dynamo::{
    merge_version, merge_versions, same_versions, Causality, Dot, VectorClock, Versioned,
};
use proptest::prelude::*;

fn clock_strategy() -> impl Strategy<Value = VectorClock> {
    prop::collection::vec((0u32..6, 1u64..8), 0..6).prop_map(|entries| {
        let mut c = VectorClock::new();
        for (id, n) in entries {
            c = c.with_entry(id, n);
        }
        c
    })
}

proptest! {
    #[test]
    fn merge_is_commutative_associative_idempotent(
        a in clock_strategy(), b in clock_strategy(), c in clock_strategy()
    ) {
        prop_assert_eq!(a.merged(&b), b.merged(&a));
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
        prop_assert_eq!(a.merged(&a), a);
    }

    /// The vector clock certified through the CRDT crate's own law
    /// checker — the same harness every `crdt` type passes — via its
    /// retrofit `crdt::Crdt` impl.
    #[test]
    fn clock_passes_the_acid_2_0_law_checker(
        a in clock_strategy(), b in clock_strategy(), c in clock_strategy()
    ) {
        crdt::check_merge_laws(&[a, b, c]).map_err(TestCaseError::Fail)?;
    }

    #[test]
    fn merge_dominates_both_inputs(a in clock_strategy(), b in clock_strategy()) {
        let m = a.merged(&b);
        prop_assert!(m.descends(&a));
        prop_assert!(m.descends(&b));
    }

    #[test]
    fn compare_is_antisymmetric(a in clock_strategy(), b in clock_strategy()) {
        match a.compare(&b) {
            Causality::Equal => prop_assert_eq!(b.compare(&a), Causality::Equal),
            Causality::Before => prop_assert_eq!(b.compare(&a), Causality::After),
            Causality::After => prop_assert_eq!(b.compare(&a), Causality::Before),
            Causality::Concurrent => prop_assert_eq!(b.compare(&a), Causality::Concurrent),
        }
    }

    #[test]
    fn increment_strictly_advances(a in clock_strategy(), id in 0u32..6) {
        let b = a.incremented(id);
        prop_assert_eq!(b.compare(&a), Causality::After);
        prop_assert_eq!(b.get(id), a.get(id) + 1);
    }

    /// The system's delivery discipline — reads return whole sibling
    /// sets, writes replicate the coordinator's whole reconciled slot,
    /// gossip merges whole slots — converges every replica to the same
    /// sibling set regardless of the final merge order. (Delivering
    /// *individual* versions out of their origin sets is exactly what
    /// breaks dotted-version coverage; the store never does it.)
    #[test]
    fn slot_merge_converges_regardless_of_order(
        // Each step: (kind, node, peer). kind 0 = blind write at node;
        // kind 1 = read peer's slot then write at node; kind 2 = gossip
        // node's slot to peer.
        script in prop::collection::vec((0u8..3, 0usize..4, 0usize..4), 1..24),
        seed in 0u64..1000
    ) {
        let n_nodes = 4usize;
        let mut slots: Vec<Vec<Versioned<u32>>> = vec![Vec::new(); n_nodes];
        let mut counters = vec![0u64; n_nodes];
        let mut val = 0u32;
        for (kind, node, peer) in script {
            match kind {
                0 | 1 => {
                    let ctx = if kind == 1 {
                        // A read returns the peer's entire sibling set;
                        // the writeback context merges all of it.
                        slots[peer].iter().fold(VectorClock::new(), |c, v| {
                            c.merged(&v.effective_clock())
                        })
                    } else {
                        VectorClock::new()
                    };
                    counters[node] = counters[node].max(ctx.get(node as u32)) + 1;
                    let dot = Dot { node: node as u32, counter: counters[node] };
                    val += 1;
                    merge_version(&mut slots[node], Versioned::new(ctx, dot, val));
                }
                _ => {
                    // Gossip: node's whole slot merges into peer's.
                    let set = slots[node].clone();
                    merge_versions(&mut slots[peer], &set);
                }
            }
        }
        // Final anti-entropy: all-pairs slot merges, in two different
        // orders, until quiescent.
        let converge = |mut slots: Vec<Vec<Versioned<u32>>>, rev: bool| {
            for _ in 0..n_nodes {
                for i in 0..n_nodes {
                    for j in 0..n_nodes {
                        let (a, b) = if rev { (n_nodes - 1 - i, n_nodes - 1 - j) } else { (i, j) };
                        if a != b {
                            let set = slots[a].clone();
                            merge_versions(&mut slots[b], &set);
                        }
                    }
                }
            }
            slots
        };
        let fwd = converge(slots.clone(), false);
        let rev = converge(slots, true);
        let _ = seed;
        for i in 0..n_nodes {
            prop_assert!(
                same_versions(&fwd[i], &fwd[0]),
                "forward order diverged: {:?} vs {:?}", fwd[i], fwd[0]
            );
            prop_assert!(
                same_versions(&fwd[i], &rev[i]),
                "order-dependent convergence: {:?} vs {:?}", fwd[i], rev[i]
            );
        }
    }

    /// No version in a maintained slot ever supersedes another.
    #[test]
    fn sibling_sets_are_antichains(
        script in prop::collection::vec((0u32..4, 0u16..u16::MAX), 1..12)
    ) {
        let mut slot: Vec<Versioned<u32>> = Vec::new();
        let mut versions: Vec<Versioned<u32>> = Vec::new();
        let mut counters = [0u64; 4];
        for (node, mask) in script {
            let mut ctx = VectorClock::new();
            for (j, earlier) in versions.iter().enumerate() {
                if mask & (1 << (j % 16)) != 0 {
                    ctx = ctx.merged(&earlier.effective_clock());
                }
            }
            counters[node as usize] = counters[node as usize].max(ctx.get(node)) + 1;
            let v = Versioned::new(ctx, Dot { node, counter: counters[node as usize] }, 0);
            versions.push(v.clone());
            merge_version(&mut slot, v);
        }
        for (i, a) in slot.iter().enumerate() {
            for (j, b) in slot.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.supersedes(b), "slot holds a dominated version");
                }
            }
        }
    }
}
