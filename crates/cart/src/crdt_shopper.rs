//! The CRDT shopper: the same client session as [`crate::shopper`], but
//! editing a [`CrdtCart`] instead of an operation ledger.
//!
//! The GET-reconcile-PUT cycle, retry discipline, timers, and anomaly
//! accounting hooks are deliberately identical to the op-log shopper so
//! the two cart modes differ in exactly one variable: *what the blob is
//! and how siblings reconcile*. Here reconciliation is the lattice join
//! ([`crdt::Crdt::merge`]) — no ledger union, no canonical replay — and
//! the shopper's edit is applied to the joined view as a CRDT mutation
//! attributed to the shopper's replica id.
//!
//! With [`dynamo::crdt_store_nodes`] the store squashes siblings
//! server-side, so most GETs already return a single joined version; the
//! client-side fold is the belt to that suspender.

use dynamo::{DynamoMsg, VectorClock, Versioned};
use quicksand_core::uniquifier::UniquifierSource;
use rand::Rng;
use sim::{Actor, Context, NodeId, SimDuration, SpanId};

use crate::crdt_cart::CrdtCart;
use crate::op::CartAction;
use crate::shopper::AckedEdit;
use crdt::Crdt;

const TAG_SHIFT: u64 = 48;
const TAG_NEXT: u64 = 1;
const TAG_STUCK: u64 = 2;

fn tag(kind: u64, seq: u64) -> u64 {
    (kind << TAG_SHIFT) | seq
}

#[derive(Debug)]
enum Phase {
    Idle,
    Getting { req: u64 },
    Putting { req: u64 },
}

/// Join every sibling's cart into one view.
fn joined_cart(siblings: &[Versioned<CrdtCart>]) -> CrdtCart {
    let mut cart = CrdtCart::new();
    for s in siblings {
        cart.merge(&s.value);
    }
    cart
}

/// The causal context for writing back the joined cart (merge of every
/// sibling's clock, same contract as [`crate::op::merged_context`]).
fn joined_context(siblings: &[Versioned<CrdtCart>]) -> VectorClock {
    let mut clock = VectorClock::new();
    for s in siblings {
        clock = clock.merged(&s.effective_clock());
    }
    clock
}

/// A shopper session working through a planned list of cart edits on the
/// CRDT cart.
#[derive(Debug)]
pub struct CrdtShopper {
    /// Shopper id (namespaces uniquifiers, request ids, and the CRDT
    /// replica id).
    pub id: u32,
    key: u64,
    coordinators: Vec<NodeId>,
    plan: Vec<CartAction>,
    think: SimDuration,
    stuck_timeout: SimDuration,
    ids: UniquifierSource,

    next_action: usize,
    /// Session cache: the join of every cart state this shopper has
    /// written or observed. Folded into each GET's view before the next
    /// edit is applied, it gives the session read-your-writes — which
    /// for the OR-Set is *load-bearing*, not a nicety: the dot counter
    /// that makes each add instance unique lives in the CRDT's causal
    /// context, so applying an edit to a view that is missing this
    /// shopper's earlier writes (a stale replica behind a one-way
    /// partition, or the empty view a failed GET falls back to) would
    /// re-mint an already-used dot — and an earlier remove that
    /// observed the first minting would silently swallow the re-add on
    /// merge. (The op-log cart is immune: its uniquifiers come from a
    /// session-monotonic source, which is exactly the property this
    /// cache restores for dots.)
    session: CrdtCart,
    /// The edit currently being worked in (kept across retries so its
    /// uniquifier is stable), as (uniquifier, action).
    current_op: Option<(quicksand_core::uniquifier::Uniquifier, CartAction)>,
    /// The `cart.edit` span covering the whole GET-reconcile-PUT cycle.
    edit_span: Option<SpanId>,
    phase: Phase,
    req_counter: u64,
    /// Edits whose PUT was acknowledged.
    pub acked: Vec<AckedEdit>,
    /// GETs that failed (shopper proceeded on an empty view).
    pub get_failures: u64,
    /// PUTs that failed (shopper retried).
    pub put_failures: u64,
    /// PUT attempts (for availability accounting).
    pub put_attempts: u64,
    /// GETs that returned more than one sibling.
    pub sibling_gets: u64,
    /// Open guess for the in-flight PUT (see [`crate::shopper::Shopper`]).
    put_guess: Option<SpanId>,
}

impl CrdtShopper {
    /// A shopper editing cart `key` through any of `coordinators`.
    pub fn new(
        id: u32,
        key: u64,
        coordinators: Vec<NodeId>,
        plan: Vec<CartAction>,
        think: SimDuration,
    ) -> Self {
        CrdtShopper {
            id,
            key,
            coordinators,
            plan,
            think,
            stuck_timeout: SimDuration::from_millis(500),
            ids: UniquifierSource::new(0x5000 + id as u64),
            next_action: 0,
            session: CrdtCart::new(),
            current_op: None,
            edit_span: None,
            phase: Phase::Idle,
            req_counter: 0,
            acked: Vec::new(),
            get_failures: 0,
            put_failures: 0,
            put_attempts: 0,
            sibling_gets: 0,
            put_guess: None,
        }
    }

    /// True when every planned edit has been acknowledged.
    pub fn done(&self) -> bool {
        self.next_action >= self.plan.len() && self.current_op.is_none()
    }

    /// The CRDT replica id this shopper mutates as.
    fn replica(&self) -> u64 {
        0x5000 + self.id as u64
    }

    fn new_req(&mut self) -> u64 {
        self.req_counter += 1;
        ((self.id as u64) << 32) | self.req_counter
    }

    fn pick_coordinator(&self, ctx: &mut Context<'_, DynamoMsg<CrdtCart>>) -> NodeId {
        let i = ctx.rng().gen_range(0..self.coordinators.len());
        self.coordinators[i]
    }

    fn begin_cycle(&mut self, ctx: &mut Context<'_, DynamoMsg<CrdtCart>>) {
        if self.current_op.is_none() {
            if self.next_action >= self.plan.len() {
                return;
            }
            let action = self.plan[self.next_action].clone();
            self.next_action += 1;
            let span = ctx.child_span(ctx.current_span(), "cart.edit");
            ctx.span_field(span, "shopper", self.id);
            ctx.span_field(span, "action", format!("{action:?}"));
            self.edit_span = Some(span);
            self.current_op = Some((self.ids.next_id(), action));
        }
        let req = self.new_req();
        self.phase = Phase::Getting { req };
        let me = ctx.me();
        let coord = self.pick_coordinator(ctx);
        ctx.set_current_span(self.edit_span);
        ctx.send(coord, DynamoMsg::ClientGet { req, key: self.key, resp_to: me });
        ctx.set_timer(self.stuck_timeout, tag(TAG_STUCK, req));
    }

    fn put_merged(
        &mut self,
        ctx: &mut Context<'_, DynamoMsg<CrdtCart>>,
        mut cart: CrdtCart,
        context: VectorClock,
        basis: &str,
    ) {
        let (_, action) = self.current_op.clone().expect("a cycle is in progress");
        // Fold in the session cache so the edit is applied to a view
        // that contains every dot this shopper ever minted (see the
        // `session` field for why this is a correctness requirement).
        cart.merge(&self.session);
        cart.apply(self.replica(), &action);
        self.session = cart.clone();
        let req = self.new_req();
        self.phase = Phase::Putting { req };
        self.put_attempts += 1;
        let me = ctx.me();
        let coord = self.pick_coordinator(ctx);
        ctx.set_current_span(self.edit_span);
        // The PUT is a guess: the shopper acts on whatever view the GET
        // produced (the lattice join makes the eventual merge safe, but
        // the individual PUT can still fail or race).
        self.put_guess = Some(ctx.begin_guess_basis("cart.put", basis));
        ctx.send(
            coord,
            DynamoMsg::ClientPut { req, key: self.key, value: cart, context, resp_to: me },
        );
        ctx.set_timer(self.stuck_timeout, tag(TAG_STUCK, req));
    }

    fn finish_cycle(&mut self, ctx: &mut Context<'_, DynamoMsg<CrdtCart>>) {
        if let Some(g) = self.put_guess.take() {
            ctx.resolve_guess(g, true);
        }
        let (id, action) = self.current_op.take().expect("finishing an active cycle");
        self.acked.push(AckedEdit { id, action, at: ctx.now() });
        if let Some(span) = self.edit_span.take() {
            ctx.finish_span(span);
        }
        ctx.metrics().inc("cart.edits_acked");
        self.phase = Phase::Idle;
        if self.next_action < self.plan.len() {
            let jitter = ctx.rng().gen_range(0..=self.think.as_micros());
            ctx.set_timer(
                self.think + SimDuration::from_micros(jitter),
                tag(TAG_NEXT, self.next_action as u64),
            );
        }
    }

    fn retry_cycle(&mut self, ctx: &mut Context<'_, DynamoMsg<CrdtCart>>) {
        if let Some(g) = self.put_guess.take() {
            // The optimistic PUT did not pan out: apologize and redo.
            ctx.resolve_guess(g, false);
        }
        if let Some(span) = self.edit_span {
            ctx.trace_event("cart.retry", &[("shopper", self.id.to_string())]);
            ctx.span_field(span, "retried", "true");
        }
        self.phase = Phase::Idle;
        let backoff = self.think / 2 + SimDuration::from_micros(ctx.rng().gen_range(0..10_000));
        ctx.set_timer(backoff, tag(TAG_NEXT, u64::MAX >> 16));
    }
}

impl Actor<DynamoMsg<CrdtCart>> for CrdtShopper {
    fn on_start(&mut self, ctx: &mut Context<'_, DynamoMsg<CrdtCart>>) {
        let jitter = ctx.rng().gen_range(0..=self.think.as_micros());
        ctx.set_timer(SimDuration::from_micros(jitter), tag(TAG_NEXT, 0));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, DynamoMsg<CrdtCart>>, t: u64) {
        let kind = t >> TAG_SHIFT;
        match kind {
            TAG_NEXT => {
                if matches!(self.phase, Phase::Idle) {
                    self.begin_cycle(ctx);
                }
            }
            TAG_STUCK => {
                let req = t & ((1 << TAG_SHIFT) - 1);
                let stuck = match self.phase {
                    Phase::Getting { req: r } | Phase::Putting { req: r } => r == req,
                    Phase::Idle => false,
                };
                if stuck {
                    ctx.metrics().inc("cart.stuck_retries");
                    self.retry_cycle(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Context<'_, DynamoMsg<CrdtCart>>,
        _from: NodeId,
        msg: DynamoMsg<CrdtCart>,
    ) {
        match msg {
            DynamoMsg::GetOk { req, versions, .. } => {
                if !matches!(self.phase, Phase::Getting { req: r } if r == req) {
                    return;
                }
                if versions.len() > 1 {
                    self.sibling_gets += 1;
                    ctx.metrics().inc("cart.sibling_reconciliations");
                }
                let cart = joined_cart(&versions);
                let context = joined_context(&versions);
                let basis =
                    if versions.len() > 1 { "reconciled sibling views" } else { "fetched view" };
                self.put_merged(ctx, cart, context, basis);
            }
            DynamoMsg::GetFailed { req } => {
                if !matches!(self.phase, Phase::Getting { req: r } if r == req) {
                    return;
                }
                // Availability over consistency: proceed on an empty view.
                self.get_failures += 1;
                ctx.metrics().inc("cart.get_failures");
                self.put_merged(
                    ctx,
                    CrdtCart::new(),
                    VectorClock::new(),
                    "empty view after failed GET",
                );
            }
            DynamoMsg::PutOk { req } => {
                if !matches!(self.phase, Phase::Putting { req: r } if r == req) {
                    return;
                }
                self.finish_cycle(ctx);
            }
            DynamoMsg::PutFailed { req } => {
                if !matches!(self.phase, Phase::Putting { req: r } if r == req) {
                    return;
                }
                self.put_failures += 1;
                ctx.metrics().inc("cart.put_failures");
                self.retry_cycle(ctx);
            }
            _ => {}
        }
    }
}
