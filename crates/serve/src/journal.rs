//! The serve journal: an append-only flat-JSON log of every *terminal*
//! task outcome, the daemon's source of crash-recovery truth.
//!
//! Record kinds (one object per line, [`rds_par::wire`] format):
//!
//! - `serve-meta` — first line; config digest + params. Resuming
//!   against a journal written under a different config is rejected.
//! - `done` — task completed: seq, arrival/start/finish, machine,
//!   attempts.
//! - `shed` — task dropped by deadline-based load shedding: seq,
//!   arrival, deadline, shed time.
//! - `failed` — task exhausted its retry budget: seq, arrival, attempts.
//! - `drain` — terminator: the run quiesced cleanly with these counts.
//!
//! ## Durability and recovery model
//!
//! The journal sits on the same crash-safe record log as the campaign
//! journal ([`rds_par::wire::RecordLog`]). Appends are buffered in
//! memory and written + fsync'd every
//! [`fsync_every`](crate::ServeConfig::fsync_every) records (and at
//! drain). A SIGKILL therefore loses at most the unsynced tail — never
//! corrupts the prefix — and a resume truncates whatever follows the
//! last committed line (a torn record, a cut UTF-8 sequence).
//!
//! Recovery does **deterministic replay with dedup**: the daemon is a
//! pure function of its config, so a resumed run re-simulates the
//! identical stream and simply skips appending any terminal record
//! whose seq is already on disk. The journal ends up with exactly one
//! terminal record per admitted task — none lost, none doubled — which
//! is the invariant the property tests and the CI SIGKILL smoke assert.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use rds_core::{Error, Result};
use rds_par::wire::{push_f64, push_json_string, scan_log, Committed, LogNames, RecordLog, Value};

use crate::config::ServeConfig;

/// How an admitted task left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// Completed successfully.
    Done,
    /// Dropped by deadline-based shedding.
    Shed,
    /// Exhausted its retry budget.
    Failed,
}

impl TerminalKind {
    fn tag(self) -> &'static str {
        match self {
            TerminalKind::Done => "done",
            TerminalKind::Shed => "shed",
            TerminalKind::Failed => "failed",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "done" => Some(TerminalKind::Done),
            "shed" => Some(TerminalKind::Shed),
            "failed" => Some(TerminalKind::Failed),
            _ => None,
        }
    }
}

/// One terminal record read back from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct TerminalRecord {
    /// Admission sequence number.
    pub seq: u64,
    /// How the task left the system.
    pub kind: TerminalKind,
    /// Arrival time.
    pub arrival: f64,
    /// Completion / shed / give-up time.
    pub at: f64,
    /// Attempts consumed (0 for sheds).
    pub attempts: u32,
    /// Machine that completed it (`done` only).
    pub machine: Option<usize>,
}

/// The drain terminator, when the run quiesced cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainRecord {
    /// Virtual time of quiescence.
    pub at: f64,
    /// Tasks admitted over the run.
    pub admitted: u64,
    /// Terminal counts: completed, shed, failed.
    pub completed: u64,
    /// Tasks shed.
    pub shed: u64,
    /// Tasks that exhausted retries.
    pub failed: u64,
}

/// Everything a journal file contains.
#[derive(Debug)]
pub struct ServeLog {
    /// Terminal records in append order (dedup already applied on read:
    /// first record per seq wins).
    pub records: Vec<TerminalRecord>,
    /// The drain terminator, if the run quiesced.
    pub drain: Option<DrainRecord>,
    /// Raw on-disk records that shared a seq with an earlier one. The
    /// writer's dedup makes this 0 in any journal it produced; the
    /// exactly-once property tests assert exactly that.
    pub duplicates: usize,
}

impl ServeLog {
    /// Seqs that completed, sorted.
    pub fn done_seqs(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|r| r.kind == TerminalKind::Done)
            .map(|r| r.seq)
            .collect();
        v.sort_unstable();
        v
    }
}

static NAMES: LogNames = LogNames {
    header: "serve-meta",
    record: "serve",
    fsync: "serve.journal.fsync",
    appends: "serve.journal.appends",
};

fn meta_line(cfg: &ServeConfig) -> String {
    let mut s = String::from("{\"v\":1,\"kind\":\"serve-meta\",\"digest\":");
    push_json_string(&mut s, &format!("{:016x}", cfg.digest()));
    s.push_str(",\"params\":");
    push_json_string(&mut s, &cfg.params());
    s.push_str("}\n");
    s
}

fn terminal_line(rec: &TerminalRecord) -> String {
    let mut s = String::from("{\"kind\":");
    push_json_string(&mut s, rec.kind.tag());
    s.push_str(&format!(",\"seq\":{}", rec.seq));
    s.push_str(",\"arrival\":");
    push_f64(&mut s, rec.arrival);
    s.push_str(",\"at\":");
    push_f64(&mut s, rec.at);
    s.push_str(&format!(",\"attempts\":{}", rec.attempts));
    if let Some(m) = rec.machine {
        s.push_str(&format!(",\"machine\":{m}"));
    }
    s.push_str("}\n");
    s
}

fn drain_line(rec: &DrainRecord) -> String {
    let mut s = String::from("{\"kind\":\"drain\",\"at\":");
    push_f64(&mut s, rec.at);
    s.push_str(&format!(
        ",\"admitted\":{},\"completed\":{},\"shed\":{},\"failed\":{}}}\n",
        rec.admitted, rec.completed, rec.shed, rec.failed
    ));
    s
}

fn digest_from_map(map: &std::collections::BTreeMap<String, Value>) -> Option<String> {
    if map.get("kind")?.as_str()? != "serve-meta" {
        return None;
    }
    Some(map.get("digest")?.as_str()?.to_string())
}

fn terminal_from_map(map: &std::collections::BTreeMap<String, Value>) -> Option<TerminalRecord> {
    Some(TerminalRecord {
        seq: map.get("seq")?.as_u64()?,
        kind: TerminalKind::from_tag(map.get("kind")?.as_str()?)?,
        arrival: map.get("arrival")?.as_f64()?,
        at: map.get("at")?.as_f64()?,
        attempts: map.get("attempts")?.as_u64()? as u32,
        machine: match map.get("machine") {
            Some(v) => Some(v.as_u64()? as usize),
            None => None,
        },
    })
}

fn drain_from_map(map: &std::collections::BTreeMap<String, Value>) -> Option<DrainRecord> {
    Some(DrainRecord {
        at: map.get("at")?.as_f64()?,
        admitted: map.get("admitted")?.as_u64()?,
        completed: map.get("completed")?.as_u64()?,
        shed: map.get("shed")?.as_u64()?,
        failed: map.get("failed")?.as_u64()?,
    })
}

struct Scan {
    digest: String,
    records: Vec<TerminalRecord>,
    drain: Option<DrainRecord>,
    committed: Committed,
}

/// Parses a journal file, tolerating a torn final line (crash artifact)
/// but rejecting corruption anywhere else.
fn scan(path: &Path) -> Result<Scan> {
    let mut records = Vec::new();
    let mut drain = None;
    let (digest, committed) = scan_log(path, &NAMES, digest_from_map, |map| {
        if map.get("kind")?.as_str() == Some("drain") {
            drain = Some(drain_from_map(map)?);
        } else {
            records.push(terminal_from_map(map)?);
        }
        Some(())
    })?;
    Ok(Scan {
        digest,
        records,
        drain,
        committed,
    })
}

/// Buffered, batch-fsync'd writer over the serve journal.
#[derive(Debug)]
pub struct ServeJournal {
    log: RecordLog,
    /// Terminal kinds already on disk, keyed by seq — the dedup set
    /// replay consults before appending.
    already: HashMap<u64, TerminalKind>,
}

impl ServeJournal {
    /// Creates (truncating) a fresh journal: meta line written and
    /// synced immediately, so even an instant crash leaves a valid file.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn create(path: impl Into<PathBuf>, cfg: &ServeConfig) -> Result<ServeJournal> {
        let log = RecordLog::create(path.into(), &meta_line(cfg), &NAMES, cfg.fsync_every)?;
        Ok(ServeJournal {
            log,
            already: HashMap::new(),
        })
    }

    /// Opens an existing journal for crash recovery (creates a fresh one
    /// when the file does not exist). A torn final line is truncated
    /// away; the dedup set is loaded from the surviving records.
    ///
    /// # Errors
    /// - [`Error::JournalCorrupt`] for mid-file corruption;
    /// - [`Error::InvalidInstance`] when the on-disk digest disagrees
    ///   with `cfg` (the journal belongs to a different run);
    /// - [`Error::Io`] on filesystem failures.
    pub fn resume(path: impl Into<PathBuf>, cfg: &ServeConfig) -> Result<ServeJournal> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path, cfg);
        }
        let scanned = scan(&path)?;
        let expect = format!("{:016x}", cfg.digest());
        if scanned.digest != expect {
            return Err(Error::InvalidInstance {
                why: format!(
                    "serve journal {} was written under config digest {} \
                     but this run has digest {expect}",
                    path.display(),
                    scanned.digest,
                ),
            });
        }
        let log = RecordLog::reopen(path, scanned.committed, &NAMES, cfg.fsync_every)?;
        let mut already = HashMap::new();
        for r in &scanned.records {
            already.entry(r.seq).or_insert(r.kind);
        }
        Ok(ServeJournal { log, already })
    }

    /// The terminal kind already journaled for `seq`, if any.
    pub fn already(&self, seq: u64) -> Option<TerminalKind> {
        self.already.get(&seq).copied()
    }

    /// Number of terminal records known (on disk + buffered).
    pub fn terminal_count(&self) -> usize {
        self.already.len()
    }

    /// Appends a terminal record unless `seq` already has one (the
    /// replay dedup). Returns `true` when the record was actually
    /// appended.
    ///
    /// # Errors
    /// [`Error::Io`] if the batch flush fails.
    pub fn append_terminal(&mut self, rec: &TerminalRecord) -> Result<bool> {
        if self.already.contains_key(&rec.seq) {
            return Ok(false);
        }
        self.already.insert(rec.seq, rec.kind);
        self.log.append(&terminal_line(rec))?;
        Ok(true)
    }

    /// Appends the drain terminator and syncs everything to disk.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn seal(&mut self, rec: &DrainRecord) -> Result<()> {
        self.log.seal(&drain_line(rec))
    }

    /// Flushes the buffered batch with one write + fsync.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn sync(&mut self) -> Result<()> {
        self.log.sync()
    }

    /// Drops the unsynced buffer — the test hook that emulates SIGKILL
    /// (a killed process loses exactly its in-memory batch; the synced
    /// prefix survives).
    pub fn drop_unsynced(&mut self) {
        self.log.drop_unsynced();
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Reads a journal without opening it for writing, deduping by seq
    /// (first record wins, matching replay semantics).
    ///
    /// # Errors
    /// Same corruption/io errors as [`ServeJournal::resume`].
    pub fn read(path: impl AsRef<Path>) -> Result<ServeLog> {
        let scanned = scan(path.as_ref())?;
        let raw = scanned.records.len();
        let mut seen = std::collections::HashSet::new();
        let records: Vec<TerminalRecord> = scanned
            .records
            .into_iter()
            .filter(|r| seen.insert(r.seq))
            .collect();
        Ok(ServeLog {
            duplicates: raw - records.len(),
            records,
            drain: scanned.drain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rds-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn cfg() -> ServeConfig {
        ServeConfig::poisson(4, 2, 2.0, 100)
    }

    fn rec(seq: u64, kind: TerminalKind) -> TerminalRecord {
        TerminalRecord {
            seq,
            kind,
            arrival: 0.25 * seq as f64,
            at: 1.0 + seq as f64,
            attempts: 1,
            machine: (kind == TerminalKind::Done).then_some(seq as usize % 4),
        }
    }

    #[test]
    fn round_trips_records_and_drain() {
        let path = tmp("roundtrip.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        assert!(j.append_terminal(&rec(0, TerminalKind::Done)).unwrap());
        assert!(j.append_terminal(&rec(1, TerminalKind::Shed)).unwrap());
        assert!(j.append_terminal(&rec(2, TerminalKind::Failed)).unwrap());
        j.seal(&DrainRecord {
            at: 9.0,
            admitted: 3,
            completed: 1,
            shed: 1,
            failed: 1,
        })
        .unwrap();
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.records[0], rec(0, TerminalKind::Done));
        assert_eq!(log.records[1].machine, None);
        assert_eq!(log.drain.as_ref().unwrap().admitted, 3);
        assert_eq!(log.done_seqs(), vec![0]);
    }

    #[test]
    fn dedup_skips_existing_seqs_across_resume() {
        let path = tmp("dedup.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.append_terminal(&rec(1, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut j = ServeJournal::resume(&path, &c).unwrap();
        assert_eq!(j.already(1), Some(TerminalKind::Done));
        // Replay re-produces seq 1; the append is suppressed.
        assert!(!j.append_terminal(&rec(1, TerminalKind::Done)).unwrap());
        assert!(j.append_terminal(&rec(2, TerminalKind::Done)).unwrap());
        j.sync().unwrap();
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.done_seqs(), vec![0, 1, 2]);
    }

    #[test]
    fn unsynced_tail_is_lost_and_replay_heals_it() {
        let path = tmp("tail.jsonl");
        let mut c = cfg();
        c.fsync_every = 100; // keep everything buffered
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        j.append_terminal(&rec(1, TerminalKind::Done)).unwrap();
        j.drop_unsynced(); // SIGKILL
        drop(j);
        let log = ServeJournal::read(&path).unwrap();
        assert_eq!(log.done_seqs(), vec![0]);
        // Resume replays both; only seq 1 is re-appended.
        let mut j = ServeJournal::resume(&path, &c).unwrap();
        assert!(!j.append_terminal(&rec(0, TerminalKind::Done)).unwrap());
        assert!(j.append_terminal(&rec(1, TerminalKind::Done)).unwrap());
        j.sync().unwrap();
        assert_eq!(ServeJournal::read(&path).unwrap().done_seqs(), vec![0, 1]);
    }

    #[test]
    fn torn_final_line_is_truncated_on_resume() {
        let path = tmp("torn.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        // Simulate a write cut mid-record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"done\",\"seq\":1,\"arr").unwrap();
        drop(f);
        let j = ServeJournal::resume(&path, &c).unwrap();
        assert_eq!(j.already(0), Some(TerminalKind::Done));
        assert_eq!(j.already(1), None);
        drop(j);
        assert_eq!(ServeJournal::read(&path).unwrap().records.len(), 1);
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let path = tmp("mismatch.jsonl");
        let c = cfg();
        drop(ServeJournal::create(&path, &c).unwrap());
        let mut other = c.clone();
        other.seed = 777;
        let err = ServeJournal::resume(&path, &other).unwrap_err();
        assert!(matches!(err, Error::InvalidInstance { .. }));
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let path = tmp("corrupt.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage line\n");
        text.push_str(&terminal_line(&rec(1, TerminalKind::Done)));
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            ServeJournal::read(&path),
            Err(Error::JournalCorrupt { line: 3, .. })
        ));
    }
}
