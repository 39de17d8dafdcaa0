//! The flight-recorder artifact stream: causal-slice explanations
//! appended to a durable [`eventlog`] instead of (only) loose files.
//!
//! The chaos driver used to persist forensics purely as
//! `explain-<seed>.{txt,json}` files — fine for a CI artifact tab, but
//! with no recovery story: a crash mid-write leaves a half file, and
//! nothing dedups the same failure re-explained across sweeps. The
//! stream rebases that on the event-log substrate this repo now ships:
//! each explanation is one CRC-framed record in a file-backed
//! [`EventLog`] under `<artifacts>/stream/`, keyed by a uniquifier
//! derived from `(scenario, seed)`. That buys, for free:
//!
//! - **Crash consistency**: a torn final record is truncated on the
//!   next open ([`RecoveryReport`] says how many bytes were cut), so
//!   the stream never replays garbage.
//! - **Idempotence**: explanations are deterministic per seed, so the
//!   `(scenario, seed)` key makes re-running a sweep a no-op append —
//!   the dedup index collapses the retry exactly like any other
//!   uniquified operation (§5.4).
//! - **Compaction**: old sealed segments keep only the newest record
//!   per key, bounding the stream across many nightly runs.

use quicksand::eventlog::{DirKind, EventLog, LogConfig, RecoveryReport};
use quicksand_core::uniquifier::Uniquifier;
use quicksand_core::wire::{from_bytes, to_bytes, WireCodec, WireError};
use sim::Explanation;
use std::path::Path;

/// One stream entry: which scenario failed, which seed, and the full
/// explanation JSON (the same bytes the loose `explain-<seed>.json`
/// file holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// Scenario name (e.g. `"eventlog_fsync"`).
    pub scenario: String,
    /// The failing sweep seed.
    pub seed: u64,
    /// `Explanation::to_json()` output.
    pub json: Vec<u8>,
}

impl WireCodec for ArtifactEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.scenario.encode(buf);
        self.seed.encode(buf);
        self.json.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(ArtifactEntry {
            scenario: String::decode(buf)?,
            seed: u64::decode(buf)?,
            json: Vec::<u8>::decode(buf)?,
        })
    }
}

/// A durable, compacting log of chaos explanations. See the module
/// docs; open with [`ArtifactStream::open`], feed with
/// [`ArtifactStream::append`], read back with
/// [`ArtifactStream::replay`].
pub struct ArtifactStream {
    log: EventLog<DirKind>,
    recovered: RecoveryReport,
}

impl ArtifactStream {
    /// Key for one `(scenario, seed)` failure.
    fn key(scenario: &str, seed: u64) -> Uniquifier {
        Uniquifier::derived_from_fields(&[b"artifact", scenario.as_bytes(), &seed.to_le_bytes()])
    }

    /// Open (or create) the stream under `dir`, recovering any torn
    /// tail a crashed previous run left behind.
    pub fn open(dir: &Path) -> Self {
        let cfg = LogConfig { partitions: 1, ..LogConfig::default() };
        let (log, recovered) = EventLog::open(DirKind::new(dir), cfg);
        ArtifactStream { log, recovered }
    }

    /// What recovery found on open (truncated bytes, torn segments).
    pub fn recovered(&self) -> &RecoveryReport {
        &self.recovered
    }

    /// Append one explanation; fsyncs before returning so a stream
    /// entry, once reported, survives the process. Returns `false` when
    /// the `(scenario, seed)` pair was already present (the idempotent
    /// re-run path).
    pub fn append(&mut self, scenario: &str, e: &Explanation) -> bool {
        let entry = ArtifactEntry {
            scenario: scenario.to_owned(),
            seed: e.seed,
            json: e.to_json().into_bytes(),
        };
        let (_, _, fresh) = self.log.append(Self::key(scenario, e.seed), to_bytes(&entry));
        if fresh {
            self.log.fsync();
        }
        fresh
    }

    /// Every entry the stream holds, oldest first. Records that fail to
    /// decode (a stream written by a future layout) are skipped rather
    /// than fatal — forensics should never block forensics.
    pub fn replay(&self) -> Vec<ArtifactEntry> {
        let mut out = Vec::new();
        for p in 0..self.log.partitions() {
            for rec in self.log.read(p, 0, usize::MAX) {
                if let Ok(entry) = from_bytes::<ArtifactEntry>(&rec.payload) {
                    out.push(entry);
                }
            }
        }
        out
    }

    /// Compact sealed segments (newest record per key). Returns freed
    /// bytes.
    pub fn compact(&mut self) -> u64 {
        self.log.compact().bytes_reclaimed
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.log.record_count()
    }

    /// True when the stream holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicksand::chaos::FaultPlan;
    use sim::{CausalSlice, FlightId, SpanStore};

    fn fake_explanation(seed: u64) -> Explanation {
        let slice = CausalSlice {
            target: FlightId(0),
            events: Vec::new(),
            truncated: false,
            missing_ancestors: 0,
            total_recorded: 0,
        };
        Explanation::new(seed, slice, FaultPlan::none(), &SpanStore::new())
    }

    #[test]
    fn stream_survives_reopen_and_dedups_reruns() {
        let dir = std::env::temp_dir().join(format!("evstream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = ArtifactStream::open(&dir);
            assert!(s.is_empty());
            assert!(s.append("cart_oplog", &fake_explanation(3)));
            assert!(s.append("cart_oplog", &fake_explanation(9)));
            assert!(!s.append("cart_oplog", &fake_explanation(3)), "re-run is a dup");
            assert_eq!(s.len(), 2);
        }
        {
            let s = ArtifactStream::open(&dir);
            assert_eq!(s.recovered().truncated_bytes, 0);
            let entries = s.replay();
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].scenario, "cart_oplog");
            assert_eq!(entries[0].seed, 3);
            assert!(!entries[1].json.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let dir = std::env::temp_dir().join(format!("evstream-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = ArtifactStream::open(&dir);
            s.append("tandem_dp2", &fake_explanation(1));
            s.append("tandem_dp2", &fake_explanation(2));
        }
        // Simulate a crash mid-append: garbage bytes on the active
        // segment of the single data partition.
        let seg_dir = dir.join("p0");
        let mut segs: Vec<_> = std::fs::read_dir(&seg_dir)
            .expect("segment dir")
            .map(|e| e.expect("entry").path())
            .collect();
        segs.sort();
        let last = segs.last().expect("at least one segment");
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(last).expect("open segment");
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).expect("tear");
        drop(f);

        let s = ArtifactStream::open(&dir);
        assert!(s.recovered().truncated_bytes >= 5, "the tear was cut: {:?}", s.recovered());
        let entries = s.replay();
        assert_eq!(entries.len(), 2, "intact records survive the torn tail");
        assert_eq!(entries.iter().map(|e| e.seed).collect::<Vec<_>>(), vec![1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
