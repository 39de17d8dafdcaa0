//! Cross-crate integration: the eventual-consistency stack — cart over
//! dynamo over sim, bank clearing, log shipping — checked across seeds
//! for the invariants the paper promises.

use quicksand::bank::{run_clearing, ClearingConfig};
use quicksand::cart::{run as run_cart, CartAction, CartScenario};
use quicksand::dynamo::DynamoConfig;
use quicksand::logship::{run as run_ship, LogshipConfig, RecoveryPolicy, ShipMode};
use quicksand::sim::{SimDuration, SimTime};

fn cart_scenario(partition: bool) -> CartScenario {
    let mut scenario = CartScenario {
        n_stores: 5,
        plans: (0..4)
            .map(|s| {
                (0..5)
                    .map(|i| {
                        let item = ((s * 5 + i) % 6) as u64;
                        if i % 3 == 2 {
                            CartAction::Remove { item }
                        } else {
                            CartAction::Add { item, qty: 1 }
                        }
                    })
                    .collect()
            })
            .collect(),
        think: SimDuration::from_millis(30),
        horizon: SimTime::from_secs(60),
        dynamo: DynamoConfig::default(),
        ..CartScenario::default()
    };
    if partition {
        scenario.faults = scenario.split(SimTime::from_millis(50), SimTime::from_secs(8));
    }
    scenario
}

#[test]
fn cart_never_loses_an_acked_edit_across_seeds_and_partitions() {
    for partition in [false, true] {
        for seed in [1u64, 7, 42, 1234] {
            let r = run_cart(&cart_scenario(partition), seed);
            assert_eq!(r.edits_acked, 20, "partition={partition} seed={seed}: {r:?}");
            assert_eq!(r.lost_edits, 0, "partition={partition} seed={seed}: {r:?}");
            assert!(r.converged, "partition={partition} seed={seed}: {r:?}");
        }
    }
}

#[test]
fn cart_stays_fully_available_through_the_partition() {
    for seed in [3u64, 9] {
        let r = run_cart(&cart_scenario(true), seed);
        assert_eq!(
            r.put_availability(),
            1.0,
            "sloppy quorum must accept every PUT (seed {seed}): {r:?}"
        );
    }
}

#[test]
fn bank_invariants_hold_across_seeds_and_windows() {
    for exchange_every in [1u64, 10, 50] {
        for seed in [1u64, 2, 3] {
            let cfg = ClearingConfig {
                rounds: 150,
                exchange_every,
                dup_presentment_prob: 0.1,
                ..ClearingConfig::default()
            };
            let r = run_clearing(&cfg, seed);
            assert!(r.converged, "w={exchange_every} seed={seed}: {r:?}");
            assert!(r.no_double_posting, "w={exchange_every} seed={seed}: {r:?}");
            assert!(r.statements_ok, "w={exchange_every} seed={seed}: {r:?}");
        }
    }
}

#[test]
fn logship_loss_grows_with_the_shipping_window() {
    let run_with = |ship_ms: u64, seed: u64| {
        let cfg = LogshipConfig {
            mode: ShipMode::Asynchronous,
            ship_interval: SimDuration::from_millis(ship_ms),
            mean_interarrival: SimDuration::from_millis(2),
            crash_primary_at: Some(SimTime::from_millis(150)),
            recovery: RecoveryPolicy::Discard,
            horizon: SimTime::from_secs(60),
            ..LogshipConfig::default()
        };
        run_ship(&cfg, seed).lost_acked
    };
    for seed in [1u64, 5] {
        let tight = run_with(2, seed);
        let loose = run_with(200, seed);
        assert!(
            loose > tight,
            "seed {seed}: loss should grow with the window ({tight} vs {loose})"
        );
    }
}

#[test]
fn logship_resurrection_always_makes_the_books_whole() {
    for seed in [1u64, 2, 3, 4, 5] {
        let cfg = LogshipConfig {
            ship_interval: SimDuration::from_millis(80),
            mean_interarrival: SimDuration::from_millis(2),
            crash_primary_at: Some(SimTime::from_millis(150)),
            restart_primary_at: Some(SimTime::from_secs(3)),
            recovery: RecoveryPolicy::Resurrect,
            horizon: SimTime::from_secs(60),
            ..LogshipConfig::default()
        };
        let r = run_ship(&cfg, seed);
        assert_eq!(r.lost_acked, 0, "seed {seed}: {r:?}");
        assert_eq!(r.duplicate_applications, 0, "seed {seed}: {r:?}");
    }
}
