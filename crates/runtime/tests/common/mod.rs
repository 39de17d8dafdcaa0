//! Shared by the ring-eviction tests (`flight_eviction.rs`,
//! `span_eviction.rs`).

use std::collections::BTreeSet;

use sim::{CausalSlice, SpanStore};

/// A slice is happens-before-closed when nothing it stands on dangles
/// silently: every member's cause edge lands on another member, and
/// every span-parent chain it walks stays inside `spans` — or the slice
/// is flagged `truncated` with the loss counted in `missing_ancestors`.
pub fn assert_slice_closed(slice: &CausalSlice, spans: &SpanStore) {
    let members: BTreeSet<u64> = slice.events.iter().map(|e| e.id.0).collect();
    let dangling: Vec<u64> = slice
        .events
        .iter()
        .filter_map(|e| e.cause)
        .map(|c| c.0)
        .filter(|c| !members.contains(c))
        .collect();
    let mut evicted_spans = BTreeSet::new();
    for e in &slice.events {
        let mut span = e.span;
        while let Some(s) = span {
            if spans.was_evicted(s) {
                evicted_spans.insert(s);
            }
            span = spans.get(s).and_then(|rec| rec.parent);
        }
    }
    if !dangling.is_empty() || !evicted_spans.is_empty() {
        assert!(
            slice.truncated,
            "slice for E{} has dangling causes {dangling:?} and evicted spans {evicted_spans:?} \
             but is not flagged truncated",
            slice.target.0
        );
        assert!(
            slice.missing_ancestors >= evicted_spans.len() as u64 && slice.missing_ancestors > 0,
            "truncated slice for E{} counts {} missing ancestors",
            slice.target.0,
            slice.missing_ancestors
        );
    }
}
