//! Criterion benchmarks of the simulated substrates: end-to-end
//! simulation throughput for the Tandem cluster (DP1 vs DP2, bus vs
//! car), the Dynamo ring/clock primitives, and a full cart
//! partition-heal scenario. These measure *simulator* wall-clock — the
//! cost of regenerating the experiment tables — and double as
//! regressions on protocol message complexity.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dynamo::VectorClock;
use quicksand::membership::HashRing;
use sim::{SimDuration, SimTime};
use tandem::{run as run_tandem, Mode, TandemConfig};

fn tandem_cfg(mode: Mode, group_commit: bool) -> TandemConfig {
    TandemConfig {
        mode,
        n_dps: 2,
        n_apps: 2,
        txns_per_app: 25,
        writes_per_txn: 4,
        mean_interarrival: SimDuration::from_millis(4),
        adp_group_commit: group_commit,
        horizon: SimTime::from_secs(30),
        ..TandemConfig::default()
    }
}

fn bench_tandem(c: &mut Criterion) {
    let mut group = c.benchmark_group("tandem_sim");
    group.sample_size(10);
    for (label, mode, gc) in
        [("dp1", Mode::Dp1, true), ("dp2_bus", Mode::Dp2, true), ("dp2_car", Mode::Dp2, false)]
    {
        group.bench_function(BenchmarkId::new("run_100_txns", label), |b| {
            b.iter(|| {
                let r = run_tandem(&tandem_cfg(mode, gc), 7);
                assert_eq!(r.lost_committed, 0);
                black_box(r.committed)
            })
        });
    }
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    let ring = HashRing::new(16, 128);
    c.bench_function("ring/preference_list_n3", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(1);
            black_box(ring.preference_list(key, 3))
        })
    });
}

fn bench_vclock(c: &mut Criterion) {
    let mut a = VectorClock::new();
    let mut b_clock = VectorClock::new();
    for i in 0..16u32 {
        a = a.incremented(i);
        if i % 2 == 0 {
            b_clock = b_clock.incremented(i);
        }
    }
    c.bench_function("vclock/compare_16_entries", |bch| {
        bch.iter(|| black_box(a.compare(&b_clock)))
    });
    c.bench_function("vclock/merge_16_entries", |bch| bch.iter(|| black_box(a.merged(&b_clock))));
}

fn bench_cart(c: &mut Criterion) {
    use cart::{run as run_cart, CartAction, CartScenario};
    let scenario = CartScenario {
        plans: vec![
            vec![CartAction::Add { item: 1, qty: 1 }, CartAction::Remove { item: 1 }],
            vec![CartAction::Add { item: 2, qty: 1 }, CartAction::Add { item: 3, qty: 1 }],
        ],
        faults: CartScenario::default().split(SimTime::from_millis(20), SimTime::from_secs(3)),
        horizon: SimTime::from_secs(20),
        ..CartScenario::default()
    };
    let mut group = c.benchmark_group("cart_sim");
    group.sample_size(10);
    group.bench_function("partition_heal_scenario", |b| {
        b.iter(|| {
            let r = run_cart(&scenario, 5);
            assert_eq!(r.lost_edits, 0);
            black_box(r.edits_acked)
        })
    });
    group.finish();
}

fn bench_bank(c: &mut Criterion) {
    use bank::{run_clearing, ClearingConfig};
    let cfg = ClearingConfig {
        rounds: 60,
        checks_per_round: 10,
        n_accounts: 30,
        ..ClearingConfig::default()
    };
    let mut group = c.benchmark_group("bank_sim");
    group.sample_size(10);
    group.bench_function("clearing_600_checks", |b| {
        b.iter(|| {
            let r = run_clearing(&cfg, 3);
            assert!(r.converged && r.no_double_posting);
            black_box(r.presented)
        })
    });
    group.finish();
}

fn bench_inventory(c: &mut Criterion) {
    use inventory::{run_stock, StockConfig, StockPolicy};
    let mut group = c.benchmark_group("inventory_sim");
    group.sample_size(10);
    for (label, policy) in [
        ("provisioned", StockPolicy::OverProvision),
        ("overbooked", StockPolicy::OverBook { factor: 1.15 }),
    ] {
        let cfg = StockConfig { policy, ..StockConfig::default() };
        group.bench_function(BenchmarkId::new("policy_run", label), |b| {
            b.iter(|| black_box(run_stock(&cfg, 5).accepted))
        });
    }
    group.finish();
}

fn bench_twopc(c: &mut Criterion) {
    use twopc::{run as run_tpc, TpcConfig};
    let cfg = TpcConfig { txns: 100, horizon: SimTime::from_secs(30), ..TpcConfig::default() };
    let mut group = c.benchmark_group("twopc_sim");
    group.sample_size(10);
    group.bench_function("run_100_dtx", |b| {
        b.iter(|| {
            let r = run_tpc(&cfg, 7);
            assert_eq!(r.unresolved, 0);
            black_box(r.committed)
        })
    });
    group.finish();
}

fn bench_logship(c: &mut Criterion) {
    use logship::{run as run_ship, LogshipConfig};
    let cfg = LogshipConfig { horizon: SimTime::from_secs(30), ..LogshipConfig::default() };
    let mut group = c.benchmark_group("logship_sim");
    group.sample_size(10);
    group.bench_function("run_200_commits", |b| {
        b.iter(|| {
            let r = run_ship(&cfg, 7);
            assert_eq!(r.lost_acked, 0);
            black_box(r.acked)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_tandem,
    bench_ring,
    bench_vclock,
    bench_cart,
    bench_bank,
    bench_inventory,
    bench_twopc,
    bench_logship
);
criterion_main!(benches);
