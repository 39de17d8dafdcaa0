//! A3: anti-entropy traffic — full-store push vs digests.

use dynamo::{
    build_cluster, store_nodes, DynamoConfig, DynamoMsg, GossipMode, Probe, StoreNode, VectorClock,
};
use sim::{SimTime, Simulation};

use crate::table::Table;

/// A3: versions shipped by anti-entropy to reach (and then maintain)
/// convergence, full-store vs digest gossip.
pub fn a3(seed: u64) -> Table {
    let mut t = Table::new(
        "A3",
        "Anti-entropy cost: full-store push vs digest exchange",
        "Design-choice ablation (DESIGN.md): once replicas are nearly in sync, advertising \
         what you have (a digest) and shipping only the delta does the same convergence work \
         for a fraction of the traffic",
        &[
            "gossip mode",
            "keys",
            "gossip rounds",
            "versions shipped",
            "digest dots sent",
            "converged",
        ],
    );
    for (label, mode) in [("full-store", GossipMode::FullStore), ("digest", GossipMode::Digest)] {
        let cfg = DynamoConfig { gossip_mode: mode, ..DynamoConfig::default() };
        let mut sim: Simulation<DynamoMsg<u64>> = Simulation::new(seed);
        let cluster = build_cluster(&mut sim, store_nodes(5, 0, &cfg));
        let probe = sim.add_node(Probe::<u64>::new());
        // Write 40 keys through scattered coordinators, then let gossip
        // run for a long quiet period (where digests should shine).
        for k in 0..40u64 {
            sim.inject_at(
                SimTime::from_millis(k),
                cluster.stores[(k % 5) as usize],
                probe,
                DynamoMsg::ClientPut {
                    req: k,
                    key: k,
                    value: k * 7,
                    context: VectorClock::new(),
                    resp_to: probe,
                },
            );
        }
        sim.run_until(SimTime::from_secs(30));
        let converged = (0..40u64).all(|k| {
            let reference = sim.actor::<StoreNode<u64>>(cluster.stores[0]).versions(k).to_vec();
            !reference.is_empty()
                && cluster.stores.iter().all(|s| {
                    dynamo::same_versions(sim.actor::<StoreNode<u64>>(*s).versions(k), &reference)
                })
        });
        let m = sim.metrics();
        t.row(vec![
            label.to_string(),
            "40".to_string(),
            m.counter("dynamo.gossip_pushes").to_string(),
            m.counter("dynamo.gossip_versions_sent").to_string(),
            m.counter("dynamo.gossip_digest_dots").to_string(),
            if converged { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}
