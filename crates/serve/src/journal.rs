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
//! The dedup set keeps one byte per seq, and resuming a sealed journal
//! is idempotent: a run that appends nothing new does not write its
//! drain line a second time.
//!
//! Each record is encoded straight into the log's batch buffer, so an
//! append allocates nothing of its own.

use std::collections::BTreeMap;
use std::fmt::Write as _;
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

/// Writes `rec` as one terminal line (newline included) onto `out`.
fn write_terminal(out: &mut String, rec: &TerminalRecord) {
    out.push_str("{\"kind\":");
    push_json_string(out, rec.kind.tag());
    let _ = write!(out, ",\"seq\":{}", rec.seq);
    out.push_str(",\"arrival\":");
    push_f64(out, rec.arrival);
    out.push_str(",\"at\":");
    push_f64(out, rec.at);
    let _ = write!(out, ",\"attempts\":{}", rec.attempts);
    if let Some(m) = rec.machine {
        let _ = write!(out, ",\"machine\":{m}");
    }
    out.push_str("}\n");
}

fn drain_line(rec: &DrainRecord) -> String {
    let mut s = String::from("{\"kind\":\"drain\",\"at\":");
    push_f64(&mut s, rec.at);
    let _ = writeln!(
        s,
        ",\"admitted\":{},\"completed\":{},\"shed\":{},\"failed\":{}}}",
        rec.admitted, rec.completed, rec.shed, rec.failed
    );
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
        attempts: u32::try_from(map.get("attempts")?.as_u64()?).ok()?,
        machine: match map.get("machine") {
            Some(v) => Some(usize::try_from(v.as_u64()?).ok()?),
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
    /// `true` when the last committed line is the drain line.
    sealed: bool,
    committed: Committed,
}

/// Parses a journal file, tolerating a torn final line (crash artifact)
/// but rejecting corruption anywhere else.
fn scan(path: &Path) -> Result<Scan> {
    let mut records = Vec::new();
    let mut drain = None;
    let mut sealed = false;
    let (digest, committed) = scan_log(path, &NAMES, digest_from_map, |map| {
        if map.get("kind")?.as_str() == Some("drain") {
            drain = Some(drain_from_map(map)?);
            sealed = true;
        } else {
            records.push(terminal_from_map(map)?);
            sealed = false;
        }
        Some(())
    })?;
    Ok(Scan {
        digest,
        records,
        drain,
        sealed,
        committed,
    })
}

/// How far past twice the known records the dense table may reach. The
/// margin covers the daemon's seqs admitted but not yet terminal, at
/// most the queue cap plus the machines: 1024 + m at the default cap.
const DENSE_SLACK: u64 = 4096;

/// Terminal kinds by seq: the dedup set replay consults before
/// appending. The daemon's seqs are dense from 0, so a seq below the
/// dense table's end costs one byte (an `Option<TerminalKind>`). A seq
/// at or past twice the known records plus [`DENSE_SLACK`] goes to a
/// sparse map instead, so a seq read from disk never sizes an
/// allocation: only a foreign or hand-edited journal holds such seqs.
#[derive(Debug, Default)]
struct SeqKinds {
    /// The kind of each seq below its length.
    dense: Vec<Option<TerminalKind>>,
    /// Kinds of the seqs that were out of the dense table's reach.
    sparse: BTreeMap<u64, TerminalKind>,
    /// Seqs with a kind, in either part.
    count: usize,
}

impl SeqKinds {
    fn get(&self, seq: u64) -> Option<TerminalKind> {
        usize::try_from(seq)
            .ok()
            .and_then(|i| self.dense.get(i).copied().flatten())
            .or_else(|| self.sparse.get(&seq).copied())
    }

    /// Records `kind` for `seq`. Returns `false`, and keeps the first
    /// kind, when `seq` already has one.
    fn insert(&mut self, seq: u64, kind: TerminalKind) -> bool {
        if self.get(seq).is_some() {
            return false;
        }
        self.count += 1;
        let reach = (self.count as u64)
            .saturating_mul(2)
            .saturating_add(DENSE_SLACK);
        match usize::try_from(seq) {
            Ok(i) if seq < reach => {
                if i >= self.dense.len() {
                    self.dense.resize(i + 1, None);
                }
                self.dense[i] = Some(kind);
            }
            _ => {
                self.sparse.insert(seq, kind);
            }
        }
        true
    }
}

/// Buffered, batch-fsync'd writer over the serve journal.
#[derive(Debug)]
pub struct ServeJournal {
    log: RecordLog,
    /// Terminal kinds on disk or buffered, by seq.
    already: SeqKinds,
    /// The drain line the log ends with, while no record has been
    /// appended after it.
    sealed: Option<String>,
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
            already: SeqKinds::default(),
            sealed: None,
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
        let mut already = SeqKinds::default();
        for r in &scanned.records {
            already.insert(r.seq, r.kind);
        }
        let sealed = scanned
            .drain
            .filter(|_| scanned.sealed)
            .map(|d| drain_line(&d));
        Ok(ServeJournal {
            log,
            already,
            sealed,
        })
    }

    /// The terminal kind already journaled for `seq`, if any.
    pub fn already(&self, seq: u64) -> Option<TerminalKind> {
        self.already.get(seq)
    }

    /// Number of terminal records known (on disk + buffered).
    pub fn terminal_count(&self) -> usize {
        self.already.count
    }

    /// Appends a terminal record unless `seq` already has one (the
    /// replay dedup). Returns `true` when the record was actually
    /// appended.
    ///
    /// # Errors
    /// [`Error::Io`] if the batch flush fails.
    pub fn append_terminal(&mut self, rec: &TerminalRecord) -> Result<bool> {
        if !self.already.insert(rec.seq, rec.kind) {
            return Ok(false);
        }
        self.sealed = None;
        self.log.append_with(|buf| write_terminal(buf, rec))?;
        Ok(true)
    }

    /// Appends the drain terminator and syncs everything to disk. Writes
    /// nothing when the log already ends with this same drain line and
    /// no record was appended since, so a resume that re-simulates a
    /// sealed run leaves its journal's bytes unchanged.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn seal(&mut self, rec: &DrainRecord) -> Result<()> {
        let line = drain_line(rec);
        if self.sealed.as_ref() == Some(&line) {
            return Ok(());
        }
        self.log.seal(&line)?;
        self.sealed = Some(line);
        Ok(())
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
            drain: scanned.drain.filter(|_| scanned.sealed),
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
        write_terminal(&mut text, &rec(1, TerminalKind::Done));
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            ServeJournal::read(&path),
            Err(Error::JournalCorrupt { line: 3, .. })
        ));
    }

    #[test]
    fn out_of_range_attempts_are_an_unparsable_record() {
        let path = tmp("attempts.jsonl");
        let c = cfg();
        let mut j = ServeJournal::create(&path, &c).unwrap();
        j.append_terminal(&rec(0, TerminalKind::Done)).unwrap();
        j.append_terminal(&rec(1, TerminalKind::Done)).unwrap();
        j.sync().unwrap();
        drop(j);
        // 2^32 + 1 would wrap to 1 under a truncating cast.
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text.replacen("\"attempts\":1,", "\"attempts\":4294967297,", 1);
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            ServeJournal::read(&path),
            Err(Error::JournalCorrupt { line: 2, .. })
        ));
    }

    #[test]
    fn far_seqs_from_a_resumed_journal_stay_out_of_the_dense_table() {
        // A foreign journal: a table sized by its largest seq would
        // abort the process.
        let path = tmp("far.jsonl");
        let c = cfg();
        let seqs = [0, 1, 1 << 40, u64::MAX];
        let kinds = [
            TerminalKind::Done,
            TerminalKind::Shed,
            TerminalKind::Failed,
            TerminalKind::Done,
        ];
        let mut j = ServeJournal::create(&path, &c).unwrap();
        for (&seq, &kind) in seqs.iter().zip(&kinds) {
            assert!(j.append_terminal(&rec(seq, kind)).unwrap());
        }
        j.sync().unwrap();
        drop(j);
        let mut j = ServeJournal::resume(&path, &c).unwrap();
        for (&seq, &kind) in seqs.iter().zip(&kinds) {
            assert_eq!(j.already(seq), Some(kind));
        }
        assert_eq!(j.already(2), None);
        assert_eq!(j.already((1 << 40) + 1), None);
        for (&seq, &kind) in seqs.iter().zip(&kinds) {
            assert!(!j.append_terminal(&rec(seq, kind)).unwrap());
        }
        assert_eq!(j.terminal_count(), 4);
        assert!(j.already.dense.len() <= 2);
    }

    /// The encoder that built an owned `String` per record, kept verbatim
    /// as the byte reference for the in-place writer.
    mod owned {
        use super::super::{DrainRecord, TerminalRecord};

        pub fn push_json_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        pub fn push_f64(out: &mut String, v: f64) {
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                out.push_str("null");
            }
        }

        pub fn terminal_line(rec: &TerminalRecord) -> String {
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

        pub fn drain_line(rec: &DrainRecord) -> String {
            let mut s = String::from("{\"kind\":\"drain\",\"at\":");
            push_f64(&mut s, rec.at);
            s.push_str(&format!(
                ",\"admitted\":{},\"completed\":{},\"shed\":{},\"failed\":{}}}\n",
                rec.admitted, rec.completed, rec.shed, rec.failed
            ));
            s
        }
    }

    mod props {
        use super::super::{
            drain_from_map, drain_line, terminal_from_map, write_terminal, DrainRecord, SeqKinds,
            TerminalKind, TerminalRecord, DENSE_SLACK,
        };
        use super::owned;
        use proptest::prelude::*;
        use rds_par::wire::parse_flat_object;
        use std::collections::HashMap;

        const KINDS: [TerminalKind; 3] =
            [TerminalKind::Done, TerminalKind::Shed, TerminalKind::Failed];

        /// Integers weighted toward both ends of the `u64` range.
        fn int() -> impl Strategy<Value = u64> {
            (0u8..4, any::<u64>()).prop_map(|(pick, x)| match pick {
                0 => x,
                1 => u64::MAX - x % 4,
                2 => x % 1000,
                _ => x >> (x % 64),
            })
        }

        /// Floats from arbitrary bit patterns: NaN, ±∞, −0.0 and
        /// subnormals included.
        fn float() -> impl Strategy<Value = f64> {
            (0u8..3, any::<u64>(), any::<f64>()).prop_map(|(pick, bits, edge)| match pick {
                0 => f64::from_bits(bits),
                // Exponent bits cleared: a subnormal or a signed zero.
                1 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
                _ => edge,
            })
        }

        fn terminal() -> impl Strategy<Value = TerminalRecord> {
            (
                (int(), 0usize..3, (0u8..3, any::<u32>())),
                (float(), float()),
                (any::<bool>(), any::<usize>()),
            )
                .prop_map(
                    |((seq, kind, (pick, a)), (arrival, at), (on_machine, machine))| {
                        TerminalRecord {
                            seq,
                            kind: KINDS[kind],
                            arrival,
                            at,
                            attempts: match pick {
                                0 => u32::MAX - a % 4,
                                1 => a % 8,
                                _ => a,
                            },
                            machine: on_machine.then_some(machine),
                        }
                    },
                )
        }

        fn drain() -> impl Strategy<Value = DrainRecord> {
            (float(), int(), int(), int(), int()).prop_map(
                |(at, admitted, completed, shed, failed)| DrainRecord {
                    at,
                    admitted,
                    completed,
                    shed,
                    failed,
                },
            )
        }

        /// Seqs the way the daemon writes them (dense from 0), with far
        /// ones mixed in.
        fn seq() -> impl Strategy<Value = u64> {
            (0u8..5, any::<u64>()).prop_map(|(pick, x)| match pick {
                0 | 1 => x % 64,
                2 => x % (2 * DENSE_SLACK + 256),
                3 => u64::MAX - x % 4,
                _ => x,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn terminal_writer_matches_the_owned_encoder_and_round_trips(
                rec in terminal(),
                end in drain(),
            ) {
                // The writer appends to a batch that already holds records.
                let mut batch = String::from("{\"kind\":\"done\"}\n");
                let start = batch.len();
                write_terminal(&mut batch, &rec);
                let line = &batch[start..];
                prop_assert_eq!(line, owned::terminal_line(&rec).as_str());
                prop_assert_eq!(drain_line(&end), owned::drain_line(&end));

                // Under the `null` rule a non-finite time makes the line
                // unparsable; Debug output tells -0.0 from 0.0, so these
                // comparisons are bit-exact.
                let parse = |line: &str| parse_flat_object(line.strip_suffix('\n').unwrap());
                let got = parse(line).and_then(|map| terminal_from_map(&map));
                let want = (rec.arrival.is_finite() && rec.at.is_finite()).then_some(&rec);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                let got = parse(&drain_line(&end)).and_then(|map| drain_from_map(&map));
                let want = end.at.is_finite().then_some(&end);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn seq_table_answers_as_a_map_would(
                ops in prop::collection::vec((seq(), 0usize..3), 0..400),
            ) {
                let mut table = SeqKinds::default();
                let mut model: HashMap<u64, TerminalKind> = HashMap::new();
                for &(seq, kind) in &ops {
                    let kind = KINDS[kind];
                    let fresh = !model.contains_key(&seq);
                    model.entry(seq).or_insert(kind);
                    prop_assert_eq!(table.insert(seq, kind), fresh);
                    prop_assert_eq!(table.count, model.len());
                    // The dense part never outgrows the records it holds.
                    prop_assert!(table.dense.len() as u64 <= 2 * model.len() as u64 + DENSE_SLACK);
                }
                for &(seq, _) in &ops {
                    for probe in [seq, seq.wrapping_add(1), seq.wrapping_sub(1)] {
                        prop_assert_eq!(table.get(probe), model.get(&probe).copied());
                    }
                }
            }
        }
    }
}
