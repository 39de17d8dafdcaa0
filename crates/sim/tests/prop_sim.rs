//! Property tests of the simulator's foundations: determinism, latency
//! bounds, and drop-rate fidelity — the guarantees every experiment in
//! the workspace stands on.

use proptest::prelude::*;
use sim::{
    Actor, Context, LinkConfig, Network, NodeId, SimDuration, SimTime, Simulation, SpanId,
    SpanRecord, SpanStatus, SpanStore,
};

#[derive(Clone)]
struct Ping;

/// Echoes pings and records delivery times.
struct Echo {
    peer: Option<NodeId>,
    to_send: u32,
    received_at: Vec<u64>,
}

impl Actor<Ping> for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        if let Some(p) = self.peer {
            for _ in 0..self.to_send {
                ctx.send(p, Ping);
            }
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, _msg: Ping) {
        self.received_at.push(ctx.now().as_micros());
    }
}

fn run_pair(seed: u64, min_us: u64, max_us: u64, drop: f64, pings: u32) -> Vec<u64> {
    let net = Network::new(LinkConfig::lossy(
        SimDuration::from_micros(min_us),
        SimDuration::from_micros(max_us),
        drop,
    ));
    let mut sim = Simulation::with_network(seed, net);
    let a = sim.add_node(Echo { peer: None, to_send: 0, received_at: vec![] });
    let _b = sim.add_node(Echo { peer: Some(a), to_send: pings, received_at: vec![] });
    sim.run_until(SimTime::from_secs(10));
    sim.actor::<Echo>(a).received_at.clone()
}

proptest! {
    /// The same seed replays the identical history, for any network.
    #[test]
    fn same_seed_same_history(
        seed in 0u64..10_000,
        min_us in 1u64..5_000,
        span in 0u64..5_000,
        drop in 0.0f64..0.9,
    ) {
        let a = run_pair(seed, min_us, min_us + span, drop, 50);
        let b = run_pair(seed, min_us, min_us + span, drop, 50);
        prop_assert_eq!(a, b);
    }

    /// Deliveries always land within the configured latency bounds.
    #[test]
    fn latency_respects_bounds(
        seed in 0u64..10_000,
        min_us in 1u64..5_000,
        span in 0u64..5_000,
    ) {
        let arrivals = run_pair(seed, min_us, min_us + span, 0.0, 50);
        prop_assert_eq!(arrivals.len(), 50, "lossless link must deliver all");
        for t in arrivals {
            prop_assert!(t >= min_us && t <= min_us + span, "t={} out of bounds", t);
        }
    }

    /// Observed drop rates stay near the configured probability.
    #[test]
    fn drop_rate_is_statistically_faithful(seed in 0u64..200, drop in 0.1f64..0.9) {
        let n = 600u32;
        let arrivals = run_pair(seed, 10, 10, drop, n);
        let delivered = arrivals.len() as f64 / n as f64;
        let expected = 1.0 - drop;
        prop_assert!(
            (delivered - expected).abs() < 0.12,
            "delivered {:.2}, expected {:.2}", delivered, expected
        );
    }
}

/// Everything a span records except its trace id (a child opened under
/// an evicted parent roots a fresh trace, so trace numbering is the one
/// thing a window may change).
fn shape(s: &SpanRecord) -> String {
    s.to_json().replace(&format!("\"trace\":\"{}\",", s.trace), "")
}

proptest! {
    /// A bounded store is a window over the unbounded one: under any
    /// interleaving of open / finish / add_field — on live, finished,
    /// evicted and never-allocated ids alike — nothing panics, the
    /// accounting adds up, and every span the bounded store still
    /// retains is the span the unbounded store recorded.
    #[test]
    fn bounded_store_is_a_window_over_the_unbounded_one(
        cap in 0usize..12,
        ops in prop::collection::vec((0u8..5, 0u64..400, 0u64..400), 0..300),
    ) {
        let mut all = SpanStore::new();
        let mut win = SpanStore::bounded(cap);
        for (step, (kind, a, b)) in ops.into_iter().enumerate() {
            let now = SimTime::from_micros(step as u64);
            // Any id up to a little past the newest.
            let target = SpanId(a % (all.len() as u64 + 2));
            match kind {
                0 | 1 => {
                    let parent = (kind == 1 && (target.0 as usize) < all.len()).then_some(target);
                    let node = Some(NodeId((b % 3) as usize));
                    let x = all.open_span("op", node, parent, now);
                    let y = win.open_span("op", node, parent, now);
                    prop_assert_eq!(x, y, "ids stay dense and allocation-ordered");
                }
                2 | 3 => {
                    let status = if kind == 2 { SpanStatus::Ok } else { SpanStatus::Failed };
                    all.finish_span(target, now, status);
                    win.finish_span(target, now, status);
                }
                _ => {
                    all.add_field(target, "k", b.to_string());
                    win.add_field(target, "k", b.to_string());
                }
            }
            prop_assert_eq!(win.len(), all.len());
            prop_assert_eq!(win.len() as u64, win.evicted() + win.retained() as u64);
            prop_assert!(win.retained() <= cap.max(1) + win.open_spans().count());
        }
        prop_assert_eq!(all.evicted(), 0);
        for s in win.spans() {
            let full = all.get(s.id).expect("the unbounded store keeps everything");
            prop_assert_eq!(shape(s), shape(full));
            if let Some(p) = s.parent.and_then(|p| win.get(p)) {
                prop_assert_eq!(p.trace, s.trace, "a retained parent shares its trace");
            }
        }
        // Open spans are never evicted, whatever their age.
        let open = |st: &SpanStore| st.open_spans().map(|s| s.id).collect::<Vec<_>>();
        prop_assert_eq!(open(&win), open(&all));
    }
}
