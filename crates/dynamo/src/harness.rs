//! Cluster construction helpers and a probe client for driving the store
//! from tests and experiment harnesses.
//!
//! Clusters boot from a [`MembershipView`] rather than a fixed store
//! count: `n_stores` members start `Up`, and an optional tail of
//! **spares** is pre-provisioned `Down` at incarnation 0 — standby
//! actors outside the ring that enter only when a
//! [`DynamoMsg::CtlJoin`] arrives (the chaos `AddNode` clause, or
//! `loadgen --join-at` in the wall-clock runtime).

use membership::{boot_view, HashRing, MemberRecord, MemberStatus, MembershipView};
use sim::{Actor, Context, NodeId, Simulation};

use crate::msg::DynamoMsg;
use crate::node::{DynamoConfig, StoreNode};
use crate::version::Versioned;

/// The node ids of a built cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Store nodes, indexed by store id — ring members first, then any
    /// pre-provisioned spares.
    pub stores: Vec<NodeId>,
    /// The boot-time ring (nodes evolve their own copies via gossip).
    pub ring: HashRing,
}

/// The standard boot view plus `spares` standby members: stores
/// `0..n_stores` are `Up` at incarnation 1; stores
/// `n_stores..n_stores+spares` are `Down` at incarnation 0, waiting for
/// a `CtlJoin` to begin their first life.
pub fn standby_view(n_stores: u32, spares: u32) -> MembershipView {
    let mut view = boot_view(&(0..n_stores as u64).collect::<Vec<_>>());
    for m in n_stores..n_stores + spares {
        view.observe(
            m,
            MemberRecord { status: MemberStatus::Down, incarnation: 0, node: m as u64, tokens: 0 },
        );
    }
    view
}

/// The store actors of a cluster, built in one place for both engines:
/// `n_stores` ring members followed by `spares` standbys outside the
/// ring. Store `s` addresses its peers as node id `s`, so the caller
/// must add these — in order — to a fresh [`Simulation`]
/// ([`build_cluster`]) or runtime builder *before* any client.
pub fn store_nodes<V: Clone + std::fmt::Debug + 'static>(
    n_stores: u32,
    spares: u32,
    cfg: &DynamoConfig,
) -> Vec<StoreNode<V>> {
    let view = standby_view(n_stores, spares);
    let peers: Vec<NodeId> = (0..(n_stores + spares) as usize).map(NodeId).collect();
    (0..n_stores + spares)
        .map(|s| StoreNode::new(s, view.clone(), peers.clone(), cfg.clone()))
        .collect()
}

/// Like [`store_nodes`], but the stored value is a [`crdt::Crdt`] and
/// every node squashes concurrent siblings server-side (see
/// [`StoreNode::with_sibling_squash`]): GETs return a single joined
/// version instead of a sibling set, and anti-entropy carries squashed
/// slots. Sound because the merge laws (§8) make the join lossless.
pub fn crdt_store_nodes<V: crdt::Crdt + 'static>(
    n_stores: u32,
    spares: u32,
    cfg: &DynamoConfig,
) -> Vec<StoreNode<V>> {
    store_nodes(n_stores, spares, cfg).into_iter().map(|n| n.with_sibling_squash()).collect()
}

/// Add a cluster's store actors ([`store_nodes`] or
/// [`crdt_store_nodes`]) to a fresh-but-empty simulation.
pub fn build_cluster<V: Clone + std::fmt::Debug + 'static>(
    sim: &mut Simulation<DynamoMsg<V>>,
    nodes: Vec<StoreNode<V>>,
) -> Cluster {
    let ring = nodes[0].ring().clone();
    let stores: Vec<NodeId> = nodes.into_iter().map(|n| sim.add_node(n)).collect();
    debug_assert!(stores.iter().enumerate().all(|(s, id)| id.0 == s), "stores must come first");
    Cluster { stores, ring }
}

/// What a probe saw come back for one request.
#[derive(Debug, Clone)]
pub enum ProbeResult<V> {
    /// PUT acknowledged.
    PutOk,
    /// PUT failed.
    PutFailed,
    /// GET returned these siblings.
    GetOk(Vec<Versioned<V>>),
    /// GET failed.
    GetFailed,
}

/// A passive client: harnesses inject `ClientPut`/`ClientGet` messages
/// *from* the probe's node id at chosen times and read the correlated
/// responses afterwards.
#[derive(Debug, Default)]
pub struct Probe<V> {
    /// Responses by request id.
    pub results: std::collections::BTreeMap<u64, ProbeResult<V>>,
}

impl<V> Probe<V> {
    /// An empty probe.
    pub fn new() -> Self {
        Probe { results: std::collections::BTreeMap::new() }
    }

    /// The result recorded for a request, if any arrived.
    pub fn result(&self, req: u64) -> Option<&ProbeResult<V>> {
        self.results.get(&req)
    }
}

impl<V: Clone + std::fmt::Debug + 'static> Actor<DynamoMsg<V>> for Probe<V> {
    fn on_message(
        &mut self,
        _ctx: &mut Context<'_, DynamoMsg<V>>,
        _from: NodeId,
        msg: DynamoMsg<V>,
    ) {
        match msg {
            DynamoMsg::PutOk { req } => {
                self.results.insert(req, ProbeResult::PutOk);
            }
            DynamoMsg::PutFailed { req } => {
                self.results.insert(req, ProbeResult::PutFailed);
            }
            DynamoMsg::GetOk { req, versions, .. } => {
                self.results.insert(req, ProbeResult::GetOk(versions));
            }
            DynamoMsg::GetFailed { req } => {
                self.results.insert(req, ProbeResult::GetFailed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vclock::VectorClock;
    use sim::{SimTime, Simulation};

    type Msg = DynamoMsg<&'static str>;

    #[allow(clippy::too_many_arguments)]
    fn put_at(
        sim: &mut Simulation<Msg>,
        at: SimTime,
        coord: NodeId,
        probe: NodeId,
        req: u64,
        key: u64,
        value: &'static str,
        context: VectorClock,
    ) {
        sim.inject_at(
            at,
            coord,
            probe,
            DynamoMsg::ClientPut { req, key, value, context, resp_to: probe },
        );
    }

    fn get_at(
        sim: &mut Simulation<Msg>,
        at: SimTime,
        coord: NodeId,
        probe: NodeId,
        req: u64,
        key: u64,
    ) {
        sim.inject_at(at, coord, probe, DynamoMsg::ClientGet { req, key, resp_to: probe });
    }

    fn cluster(seed: u64, n: u32) -> (Simulation<Msg>, Cluster, NodeId) {
        let mut sim = Simulation::new(seed);
        let c = build_cluster(&mut sim, store_nodes(n, 0, &DynamoConfig::default()));
        let probe = sim.add_node(Probe::<&'static str>::new());
        (sim, c, probe)
    }

    #[test]
    fn put_then_get_round_trips() {
        let (mut sim, c, probe) = cluster(1, 4);
        put_at(
            &mut sim,
            SimTime::from_millis(1),
            c.stores[0],
            probe,
            1,
            42,
            "hello",
            VectorClock::new(),
        );
        get_at(&mut sim, SimTime::from_millis(50), c.stores[1], probe, 2, 42);
        sim.run_until(SimTime::from_millis(100));
        let p: &Probe<&'static str> = sim.actor(probe);
        assert!(matches!(p.result(1), Some(ProbeResult::PutOk)));
        match p.result(2) {
            Some(ProbeResult::GetOk(vs)) => {
                assert_eq!(vs.len(), 1);
                assert_eq!(vs[0].value, "hello");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_blind_puts_surface_as_siblings() {
        let (mut sim, c, probe) = cluster(2, 4);
        // Two writers, no shared context, different coordinators.
        put_at(
            &mut sim,
            SimTime::from_millis(1),
            c.stores[0],
            probe,
            1,
            7,
            "from-a",
            VectorClock::new(),
        );
        put_at(
            &mut sim,
            SimTime::from_millis(1),
            c.stores[1],
            probe,
            2,
            7,
            "from-b",
            VectorClock::new(),
        );
        get_at(&mut sim, SimTime::from_millis(80), c.stores[2], probe, 3, 7);
        sim.run_until(SimTime::from_millis(150));
        let p: &Probe<&'static str> = sim.actor(probe);
        match p.result(3) {
            Some(ProbeResult::GetOk(vs)) => {
                assert_eq!(vs.len(), 2, "both concurrent writes must survive: {vs:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contextual_put_supersedes_and_collapses() {
        let (mut sim, c, probe) = cluster(3, 4);
        put_at(
            &mut sim,
            SimTime::from_millis(1),
            c.stores[0],
            probe,
            1,
            7,
            "v1",
            VectorClock::new(),
        );
        get_at(&mut sim, SimTime::from_millis(50), c.stores[0], probe, 2, 7);
        sim.run_until(SimTime::from_millis(100));
        let context = {
            let p: &Probe<&'static str> = sim.actor(probe);
            match p.result(2) {
                Some(ProbeResult::GetOk(vs)) => vs[0].effective_clock(),
                other => panic!("unexpected {other:?}"),
            }
        };
        put_at(&mut sim, SimTime::from_millis(101), c.stores[1], probe, 3, 7, "v2", context);
        get_at(&mut sim, SimTime::from_millis(200), c.stores[2], probe, 4, 7);
        sim.run_until(SimTime::from_millis(300));
        let p: &Probe<&'static str> = sim.actor(probe);
        match p.result(4) {
            Some(ProbeResult::GetOk(vs)) => {
                assert_eq!(vs.len(), 1, "descendant must collapse the ancestor");
                assert_eq!(vs[0].value, "v2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn puts_survive_partition_via_sloppy_quorum() {
        let (mut sim, c, probe) = cluster(4, 5);
        // Find key 9's preferred stores and partition them all away from
        // the rest; coordinate from a non-preferred store.
        let prefs = c.ring.preference_list(9, 3);
        let pref_nodes: Vec<NodeId> = prefs.iter().map(|s| c.stores[*s as usize]).collect();
        let others: Vec<NodeId> =
            c.stores.iter().copied().filter(|n| !pref_nodes.contains(n)).collect();
        assert!(others.len() >= 2, "need 2 non-preferred stores for W=2");
        let coord = others[0];
        sim.schedule_partition(SimTime::from_millis(0), &pref_nodes, &others);
        put_at(
            &mut sim,
            SimTime::from_millis(10),
            coord,
            probe,
            1,
            9,
            "sloppy",
            VectorClock::new(),
        );
        sim.run_until(SimTime::from_millis(200));
        {
            let p: &Probe<&'static str> = sim.actor(probe);
            assert!(
                matches!(p.result(1), Some(ProbeResult::PutOk)),
                "the PUT must be accepted despite the partition: {:?}",
                p.result(1)
            );
        }
        assert!(sim.metrics().counter("dynamo.hints_stored") > 0);
        // Heal; hinted handoff delivers to the preferred stores.
        sim.schedule_heal(SimTime::from_millis(200));
        sim.run_until(SimTime::from_secs(3));
        let first_pref: &StoreNode<&'static str> = sim.actor(pref_nodes[0]);
        assert!(!first_pref.versions(9).is_empty(), "hinted handoff must deliver after heal");
    }

    #[test]
    fn anti_entropy_converges_all_replicas() {
        let (mut sim, c, probe) = cluster(5, 4);
        for (i, key) in [11u64, 22, 33].iter().enumerate() {
            put_at(
                &mut sim,
                SimTime::from_millis(1 + i as u64),
                c.stores[i % 4],
                probe,
                i as u64,
                *key,
                "x",
                VectorClock::new(),
            );
        }
        sim.run_until(SimTime::from_secs(5));
        // After plenty of gossip, every store that replicates a key has
        // an equivalent sibling set; with full-store push everyone has
        // everything.
        for key in [11u64, 22, 33] {
            let reference =
                sim.actor::<StoreNode<&'static str>>(c.stores[0]).versions(key).to_vec();
            assert!(!reference.is_empty());
            for s in &c.stores[1..] {
                let node: &StoreNode<&'static str> = sim.actor(*s);
                assert!(
                    crate::version::same_versions(node.versions(key), &reference),
                    "store {s} diverged on key {key}"
                );
            }
        }
    }

    #[test]
    fn get_fails_when_r_unreachable_without_sloppy_reads_helping() {
        let mut cfg = DynamoConfig { gossip_interval: None, ..DynamoConfig::default() };
        cfg.r = 2;
        let mut sim: Simulation<Msg> = Simulation::new(6);
        let c = build_cluster(&mut sim, store_nodes(3, 0, &cfg));
        let probe = sim.add_node(Probe::<&'static str>::new());
        // Isolate the coordinator completely from the other stores.
        let rest: Vec<NodeId> = c.stores[1..].to_vec();
        sim.schedule_partition(SimTime::ZERO, &[c.stores[0]], &rest);
        get_at(&mut sim, SimTime::from_millis(1), c.stores[0], probe, 1, 5);
        sim.run_until(SimTime::from_secs(1));
        let p: &Probe<&'static str> = sim.actor(probe);
        match p.result(1) {
            Some(ProbeResult::GetFailed) => {}
            other => panic!("isolated coordinator cannot reach R=2: {other:?}"),
        }
    }

    #[test]
    fn crdt_cluster_squashes_concurrent_siblings() {
        use crdt::GCounter;
        let mut sim: Simulation<DynamoMsg<GCounter>> = Simulation::new(8);
        let c = build_cluster(&mut sim, crdt_store_nodes(4, 0, &DynamoConfig::default()));
        let probe = sim.add_node(Probe::<GCounter>::new());
        // Two blind writers on different coordinators — with a plain
        // cluster these surface as two siblings; here they squash.
        let mut a = GCounter::new();
        a.inc(1, 5);
        let mut b = GCounter::new();
        b.inc(2, 7);
        for (req, coord, v) in [(1u64, 0usize, a), (2, 1, b)] {
            sim.inject_at(
                SimTime::from_millis(1),
                c.stores[coord],
                probe,
                DynamoMsg::ClientPut {
                    req,
                    key: 7,
                    value: v,
                    context: VectorClock::new(),
                    resp_to: probe,
                },
            );
        }
        sim.inject_at(
            SimTime::from_millis(80),
            c.stores[2],
            probe,
            DynamoMsg::ClientGet { req: 3, key: 7, resp_to: probe },
        );
        sim.run_until(SimTime::from_millis(150));
        let p: &Probe<GCounter> = sim.actor(probe);
        match p.result(3) {
            Some(ProbeResult::GetOk(vs)) => {
                assert_eq!(vs.len(), 1, "siblings must squash into one version: {vs:?}");
                assert_eq!(vs[0].value.value(), 12, "the join keeps both tallies");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(sim.metrics().counter("dynamo.siblings_squashed") > 0);
        // Convergence: after gossip every replica holds one squashed
        // version with the full value.
        sim.run_until(SimTime::from_secs(5));
        for s in &c.stores {
            let node: &StoreNode<GCounter> = sim.actor(*s);
            let vs = node.versions(7);
            assert_eq!(vs.len(), 1, "store {s} still holds siblings: {vs:?}");
            assert_eq!(vs[0].value.value(), 12);
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let (mut sim, c, probe) = cluster(seed, 4);
            for i in 0..10u64 {
                put_at(
                    &mut sim,
                    SimTime::from_millis(i),
                    c.stores[(i % 4) as usize],
                    probe,
                    i,
                    i % 3,
                    "v",
                    VectorClock::new(),
                );
            }
            sim.run_until(SimTime::from_secs(2));
            sim.metrics().counter("sim.messages_sent")
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn spare_joins_and_receives_its_key_range() {
        let mut sim: Simulation<Msg> = Simulation::new(11);
        let c = build_cluster(&mut sim, store_nodes(3, 1, &DynamoConfig::default()));
        let spare = c.stores[3];
        let probe = sim.add_node(Probe::<&'static str>::new());
        // Seed data while the spare is a silent standby.
        for (i, key) in (0..20u64).enumerate() {
            put_at(
                &mut sim,
                SimTime::from_millis(1 + i as u64),
                c.stores[(i % 3) as usize],
                probe,
                i as u64,
                key,
                "v",
                VectorClock::new(),
            );
        }
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.actor::<StoreNode<&'static str>>(spare).key_count(), 0, "standby is idle");
        // Join: the spare enters the ring and old owners stream its range.
        sim.inject_at(SimTime::from_millis(500), spare, spare, DynamoMsg::CtlJoin);
        sim.run_until(SimTime::from_secs(4));
        let node: &StoreNode<&'static str> = sim.actor(spare);
        assert_eq!(node.gossiper.status(), MemberStatus::Up, "join settles into Up");
        assert!(node.key_count() > 0, "the joiner must receive its key range");
        assert!(node.ring().contains(3), "the joiner's own ring includes it");
        // Every member converged on a 4-store ring.
        for s in &c.stores {
            let n: &StoreNode<&'static str> = sim.actor(*s);
            assert_eq!(n.ring().len(), 4, "store {s} sees the grown ring");
            assert!(n.ring().contains(3), "store {s} routes around the joiner");
            assert_eq!(n.transfer_count(), 0, "all transfers settled");
        }
        assert!(sim.metrics().counter("dynamo.transfers_completed") > 0);
        assert_eq!(sim.ledger().open_count(), 0, "no transfer guess left open");
    }

    #[test]
    fn graceful_leave_streams_keys_out_before_departing() {
        let mut sim: Simulation<Msg> = Simulation::new(12);
        let c = build_cluster(&mut sim, store_nodes(4, 0, &DynamoConfig::default()));
        let probe = sim.add_node(Probe::<&'static str>::new());
        for (i, key) in (0..20u64).enumerate() {
            put_at(
                &mut sim,
                SimTime::from_millis(1 + i as u64),
                c.stores[(i % 4) as usize],
                probe,
                i as u64,
                key,
                "v",
                VectorClock::new(),
            );
        }
        sim.run_until(SimTime::from_millis(500));
        sim.inject_at(SimTime::from_millis(500), c.stores[2], c.stores[2], DynamoMsg::CtlLeave);
        sim.run_until(SimTime::from_secs(4));
        let leaver: &StoreNode<&'static str> = sim.actor(c.stores[2]);
        assert_eq!(leaver.gossiper.status(), MemberStatus::Down, "drain completes into Down");
        assert!(leaver.gossiper.departed(), "the leave was chosen, not a rumor");
        assert_eq!(leaver.transfer_count(), 0, "every drain batch was acked");
        // Every acked write is still held by a current preference-list
        // member — the acid test of `no-acked-write-lost-across-rebalance`.
        let survivor: &StoreNode<&'static str> = sim.actor(c.stores[0]);
        let ring = survivor.ring().clone();
        assert!(!ring.contains(2), "the ring forgot the leaver");
        for key in 0..20u64 {
            let holders = ring.preference_list(key, 3);
            let held = holders.iter().any(|s| {
                !sim.actor::<StoreNode<&'static str>>(c.stores[*s as usize])
                    .versions(key)
                    .is_empty()
            });
            assert!(held, "key {key} must live on a current owner");
        }
        assert_eq!(sim.ledger().open_count(), 0, "no transfer guess left open");
    }
}
