//! E6: the shopping cart over Dynamo under partition (§6.1).

use cart::{run, CartAction, CartScenario};
use dynamo::DynamoConfig;
use sim::{SimDuration, SimTime};

use crate::table::{f, Table};

fn busy_plans(n_shoppers: usize, edits_each: usize) -> Vec<Vec<CartAction>> {
    // Deterministic interleaved add/remove traffic on a small SKU set so
    // concurrent removes and adds actually collide.
    (0..n_shoppers)
        .map(|s| {
            (0..edits_each)
                .map(|i| {
                    let item = ((s * edits_each + i) % 5) as u64;
                    match i % 4 {
                        0 | 1 => CartAction::Add { item, qty: 1 },
                        2 => CartAction::ChangeQty { item, qty: 3 },
                        _ => CartAction::Remove { item },
                    }
                })
                .collect()
        })
        .collect()
}

/// E6: write availability, lost edits, siblings, and resurrections —
/// sloppy-quorum AP store vs strict-quorum baseline, with and without a
/// partition.
pub fn e6(seed: u64) -> Table {
    let mut t = Table::new(
        "E6",
        "Cart over Dynamo: availability vs consistency under partition",
        "\"Dynamo always accepts a PUT... items added to the cart will not be lost... \
         occasionally deleted items will reappear\" (§6.1, §6.4); the application, not the \
         store, supplies the commutativity (§6.4)",
        &[
            "store",
            "partition",
            "edits acked",
            "PUT avail %",
            "lost edits",
            "sibling merges",
            "resurrections",
            "converged",
        ],
    );
    for (label, sloppy) in [("sloppy (AP)", true), ("strict (CP)", false)] {
        for (plabel, partition) in [("none", false), ("10s", true)] {
            let mut scenario = CartScenario {
                dynamo: DynamoConfig { sloppy, ..DynamoConfig::default() },
                n_stores: 5,
                plans: busy_plans(4, 6),
                think: SimDuration::from_millis(40),
                horizon: SimTime::from_secs(60),
                ..CartScenario::default()
            };
            if partition {
                scenario.faults = scenario.split(SimTime::from_millis(50), SimTime::from_secs(10));
            }
            let r = run(&scenario, seed);
            t.row(vec![
                label.to_string(),
                plabel.to_string(),
                r.edits_acked.to_string(),
                f(r.put_availability() * 100.0),
                r.lost_edits.to_string(),
                r.sibling_reconciliations.to_string(),
                r.resurrected_items.to_string(),
                if r.converged { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    t
}
