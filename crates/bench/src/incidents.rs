//! The durable incident stream: crash post-mortems appended to an
//! [`eventlog`](quicksand::eventlog) so the black box survives the
//! process that wrote it.
//!
//! The runtime files every crash post-mortem into its in-memory
//! [`sim::IncidentLog`] — a bounded ring that dies with the process.
//! That is exactly backwards for forensics: the incidents you most
//! want are the ones the process did *not* survive. This stream is the
//! bench-side fix: each incident becomes one CRC-framed record in a
//! file-backed event log under `<dir>/`, keyed by a uniquifier derived
//! from `(node, epoch, incident_seq)`. The key makes persistence
//! idempotent — a driver that drains the ring after every fault-plan
//! run re-appends old incidents as no-ops, and a restarted driver
//! recovers its own earlier records (torn tail truncated, never
//! replayed) before adding new ones.

use quicksand::eventlog::{DirKind, EventLog, LogConfig, RecoveryReport};
use quicksand_core::uniquifier::Uniquifier;
use quicksand_core::wire::{from_bytes, to_bytes, WireCodec, WireError};
use sim::Incident;
use std::path::Path;

/// One stream entry: the identifying key fields plus both renderings
/// of the incident (structured JSON for tooling, the text timeline for
/// a human grepping the artifact tab).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRecord {
    /// Node index the incident happened on.
    pub node: u64,
    /// Crash epoch of that node when the incident was filed.
    pub epoch: u64,
    /// Dense sequence number from the in-memory [`sim::IncidentLog`].
    pub seq: u64,
    /// Incident kind (`"panic-crash"`, `"chaos-crash"`,
    /// `"guess-deadline"`).
    pub kind: String,
    /// [`sim::Incident::to_json`] output.
    pub json: Vec<u8>,
    /// [`sim::Incident::render_text`] output.
    pub text: Vec<u8>,
}

impl WireCodec for IncidentRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.node.encode(buf);
        self.epoch.encode(buf);
        self.seq.encode(buf);
        self.kind.encode(buf);
        self.json.encode(buf);
        self.text.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(IncidentRecord {
            node: u64::decode(buf)?,
            epoch: u64::decode(buf)?,
            seq: u64::decode(buf)?,
            kind: String::decode(buf)?,
            json: Vec::<u8>::decode(buf)?,
            text: Vec::<u8>::decode(buf)?,
        })
    }
}

/// A durable, compacting log of crash post-mortems. Open with
/// [`IncidentStream::open`], feed with [`IncidentStream::append`],
/// read back with [`IncidentStream::replay`].
pub struct IncidentStream {
    log: EventLog<DirKind>,
    recovered: RecoveryReport,
}

impl IncidentStream {
    /// Key for one `(node, epoch, seq)` incident.
    fn key(node: u64, epoch: u64, seq: u64) -> Uniquifier {
        Uniquifier::derived_from_fields(&[
            b"incident",
            &node.to_le_bytes(),
            &epoch.to_le_bytes(),
            &seq.to_le_bytes(),
        ])
    }

    /// Open (or create) the stream under `dir`, recovering any torn
    /// tail a crashed previous run left behind.
    pub fn open(dir: &Path) -> Self {
        let cfg = LogConfig { partitions: 1, ..LogConfig::default() };
        let (log, recovered) = EventLog::open(DirKind::new(dir), cfg);
        IncidentStream { log, recovered }
    }

    /// What recovery found on open (truncated bytes, torn segments).
    pub fn recovered(&self) -> &RecoveryReport {
        &self.recovered
    }

    /// Append one incident; fsyncs before returning so a filed
    /// incident, once reported, survives the process. Returns `false`
    /// when the `(node, epoch, seq)` key was already present — the
    /// idempotent re-drain path.
    pub fn append(&mut self, incident: &Incident) -> bool {
        let rec = IncidentRecord {
            node: incident.node.0 as u64,
            epoch: incident.epoch,
            seq: incident.seq,
            kind: incident.kind.as_str().to_owned(),
            json: incident.to_json().into_bytes(),
            text: incident.render_text().into_bytes(),
        };
        let (_, _, fresh) =
            self.log.append(Self::key(rec.node, rec.epoch, rec.seq), to_bytes(&rec));
        if fresh {
            self.log.fsync();
        }
        fresh
    }

    /// Every record the stream holds, oldest first. Records that fail
    /// to decode (a stream written by a future layout) are skipped
    /// rather than fatal — forensics should never block forensics.
    pub fn replay(&self) -> Vec<IncidentRecord> {
        let mut out = Vec::new();
        for p in 0..self.log.partitions() {
            for rec in self.log.read(p, 0, usize::MAX) {
                if let Ok(entry) = from_bytes::<IncidentRecord>(&rec.payload) {
                    out.push(entry);
                }
            }
        }
        out
    }

    /// An index of the stream as one JSON object, mirroring the shape
    /// of the live `GET /incidents` endpoint closely enough for the
    /// same tooling to consume either.
    pub fn index_json(&self) -> String {
        let recs = self.replay();
        let mut out = format!("{{\"count\":{},\"incidents\":[", recs.len());
        for (i, r) in recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":\"n{}\",\"epoch\":{},\"seq\":{},\"kind\":\"{}\"}}",
                r.node, r.epoch, r.seq, r.kind
            ));
        }
        out.push_str("]}");
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
    use sim::{CausalSlice, Explanation, FlightId, IncidentKind, NodeId, SimTime, SpanStore};

    fn fake_incident(seq: u64, node: usize, epoch: u64) -> Incident {
        let slice = CausalSlice {
            target: FlightId(7),
            events: Vec::new(),
            truncated: false,
            missing_ancestors: 0,
            total_recorded: 0,
        };
        Incident {
            seq,
            node: NodeId(node),
            epoch,
            kind: IncidentKind::ChaosCrash,
            at: SimTime::from_micros(250),
            target: FlightId(7),
            orphaned_guesses: vec!["cart.add".to_owned()],
            explanation: Explanation::new(9, slice, FaultPlan::none(), &SpanStore::new()),
        }
    }

    #[test]
    fn stream_survives_reopen_and_dedups_redrains() {
        let dir = std::env::temp_dir().join(format!("incstream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = IncidentStream::open(&dir);
            assert!(s.is_empty());
            assert!(s.append(&fake_incident(0, 2, 1)));
            assert!(s.append(&fake_incident(1, 0, 1)));
            assert!(!s.append(&fake_incident(0, 2, 1)), "re-drain is a dup");
            assert_eq!(s.len(), 2);
        }
        {
            let s = IncidentStream::open(&dir);
            assert_eq!(s.recovered().truncated_bytes, 0);
            let recs = s.replay();
            assert_eq!(recs.len(), 2);
            assert_eq!(recs[0].node, 2);
            assert_eq!(recs[0].kind, "chaos-crash");
            assert!(String::from_utf8_lossy(&recs[0].text).contains("incident #0"));
            assert!(s.index_json().contains("\"count\":2"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seq_different_epoch_is_a_distinct_incident() {
        let dir = std::env::temp_dir().join(format!("incstream-epoch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = IncidentStream::open(&dir);
        assert!(s.append(&fake_incident(0, 1, 1)));
        assert!(s.append(&fake_incident(0, 1, 2)), "epoch is part of the key");
        assert_eq!(s.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
