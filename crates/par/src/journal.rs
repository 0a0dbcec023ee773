//! Append-only, fsync'd campaign journal (JSONL).
//!
//! A campaign writes one `meta` line identifying the experiment (name,
//! instance digest, master seed, parameter string) followed by one
//! `trial` line per finished trial. Every append is flushed and synced
//! before the campaign moves on, so a SIGKILL loses at most the trial in
//! flight. On `--resume` the journal is re-read, already-journaled
//! trials are skipped, and aggregates are recomputed from the union of
//! journaled and freshly-run records — byte-identical to an
//! uninterrupted run because every number round-trips exactly (integers
//! verbatim, floats via Rust's shortest-round-trip formatting).
//!
//! Robustness contract (the file handling is the shared record log in
//! [`crate::wire`], the same one under the `rds-serve` journal):
//! - a **torn final line** (the crash artifact) is tolerated and
//!   truncated away on resume;
//! - any **earlier** unparsable line is real corruption and surfaces as
//!   [`Error::JournalCorrupt`];
//! - a journal whose meta line disagrees with the live campaign (other
//!   instance digest, seed, or parameters) is rejected with
//!   [`Error::InvalidInstance`] instead of silently mixing experiments.
//!
//! No serde: the format is flat, the parser in [`crate::wire`] handles
//! exactly the subset the writer emits (one-level objects of strings,
//! numbers, booleans, and nulls).

use crate::wire::{push_f64, push_json_string, scan_log, Committed, LogNames, RecordLog, Value};
use rds_core::{Error, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Identity of a campaign; journals can only be resumed by the campaign
/// that wrote them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignMeta {
    /// Campaign kind (`"resilience"`, `"sweep"`, ...).
    pub campaign: String,
    /// [`rds_core::Instance::digest`] of the instance under test.
    pub digest: u64,
    /// The master seed every trial seed derives from.
    pub seed: u64,
    /// Free-form parameter string; must match exactly on resume.
    pub params: String,
}

/// Terminal status of one journaled trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialStatus {
    /// Every task completed.
    Completed,
    /// The run degraded gracefully; some tasks never finished.
    Partial,
    /// The trial errored (counted, excluded from aggregates).
    Failed,
    /// The watchdog gave up on the trial after repeated failures.
    Quarantined,
}

impl TrialStatus {
    /// Stable wire tag.
    pub fn as_str(self) -> &'static str {
        match self {
            TrialStatus::Completed => "completed",
            TrialStatus::Partial => "partial",
            TrialStatus::Failed => "failed",
            TrialStatus::Quarantined => "quarantined",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "completed" => TrialStatus::Completed,
            "partial" => TrialStatus::Partial,
            "failed" => TrialStatus::Failed,
            "quarantined" => TrialStatus::Quarantined,
            _ => return None,
        })
    }

    /// `true` when the trial produced usable metrics (completed or
    /// gracefully partial).
    pub fn usable(self) -> bool {
        matches!(self, TrialStatus::Completed | TrialStatus::Partial)
    }
}

/// One finished trial, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Policy name the trial ran under.
    pub policy: String,
    /// Trial index within the campaign (0-based).
    pub trial: u64,
    /// The trial's derived seed.
    pub seed: u64,
    /// Watchdog attempts consumed.
    pub attempts: u32,
    /// Terminal status.
    pub status: TrialStatus,
    /// Fraction of tasks completed.
    pub survival: f64,
    /// Attempts killed by faults and restarted.
    pub restarts: f64,
    /// Machines that rejoined after outages.
    pub rejoins: f64,
    /// Speculative backups launched.
    pub spec_started: f64,
    /// Speculative backups that won.
    pub spec_wins: f64,
    /// Attempts cancelled (speculation losers).
    pub cancelled: f64,
    /// Wall-clock work thrown away (killed + cancelled attempts).
    pub wasted: f64,
    /// Achieved makespan (of completed work).
    pub makespan: f64,
    /// Fault-free baseline makespan of the same trial, when measured.
    pub baseline: Option<f64>,
    /// Rendered error, for failed/quarantined trials.
    pub error: Option<String>,
}

impl TrialRecord {
    /// The resume identity: one journaled record per (policy, trial).
    pub fn key(&self) -> (String, u64) {
        (self.policy.clone(), self.trial)
    }
}

// ---------------------------------------------------------------------
// Flat-JSON encoding (shared wire format lives in [`crate::wire`])
// ---------------------------------------------------------------------

fn meta_line(meta: &CampaignMeta) -> String {
    let mut s = String::from("{\"v\":1,\"kind\":\"meta\",\"campaign\":");
    push_json_string(&mut s, &meta.campaign);
    s.push_str(",\"digest\":");
    push_json_string(&mut s, &format!("{:016x}", meta.digest));
    s.push_str(&format!(",\"seed\":{}", meta.seed));
    s.push_str(",\"params\":");
    push_json_string(&mut s, &meta.params);
    s.push_str("}\n");
    s
}

/// Writes `rec` as one trial line (newline included) onto `out`.
fn write_trial(out: &mut String, rec: &TrialRecord) {
    out.push_str("{\"kind\":\"trial\",\"policy\":");
    push_json_string(out, &rec.policy);
    let _ = write!(
        out,
        ",\"trial\":{},\"seed\":{},\"attempts\":{},\"status\":\"{}\"",
        rec.trial,
        rec.seed,
        rec.attempts,
        rec.status.as_str()
    );
    for (name, v) in [
        ("survival", rec.survival),
        ("restarts", rec.restarts),
        ("rejoins", rec.rejoins),
        ("spec_started", rec.spec_started),
        ("spec_wins", rec.spec_wins),
        ("cancelled", rec.cancelled),
        ("wasted", rec.wasted),
        ("makespan", rec.makespan),
    ] {
        let _ = write!(out, ",\"{name}\":");
        push_f64(out, v);
    }
    out.push_str(",\"baseline\":");
    match rec.baseline {
        Some(b) => push_f64(out, b),
        None => out.push_str("null"),
    }
    out.push_str(",\"error\":");
    match &rec.error {
        Some(e) => push_json_string(out, e),
        None => out.push_str("null"),
    }
    out.push_str("}\n");
}

fn meta_from_map(map: &BTreeMap<String, Value>) -> Option<CampaignMeta> {
    if map.get("kind")?.as_str()? != "meta" {
        return None;
    }
    Some(CampaignMeta {
        campaign: map.get("campaign")?.as_str()?.to_string(),
        digest: u64::from_str_radix(map.get("digest")?.as_str()?, 16).ok()?,
        seed: map.get("seed")?.as_u64()?,
        params: map.get("params")?.as_str()?.to_string(),
    })
}

fn trial_from_map(map: &BTreeMap<String, Value>) -> Option<TrialRecord> {
    if map.get("kind")?.as_str()? != "trial" {
        return None;
    }
    let opt_f64 = |key: &str| -> Option<Option<f64>> {
        match map.get(key)? {
            Value::Null => Some(None),
            v => Some(Some(v.as_f64()?)),
        }
    };
    Some(TrialRecord {
        policy: map.get("policy")?.as_str()?.to_string(),
        trial: map.get("trial")?.as_u64()?,
        seed: map.get("seed")?.as_u64()?,
        attempts: u32::try_from(map.get("attempts")?.as_u64()?).ok()?,
        status: TrialStatus::parse(map.get("status")?.as_str()?)?,
        survival: map.get("survival")?.as_f64()?,
        restarts: map.get("restarts")?.as_f64()?,
        rejoins: map.get("rejoins")?.as_f64()?,
        spec_started: map.get("spec_started")?.as_f64()?,
        spec_wins: map.get("spec_wins")?.as_f64()?,
        cancelled: map.get("cancelled")?.as_f64()?,
        wasted: map.get("wasted")?.as_f64()?,
        makespan: map.get("makespan")?.as_f64()?,
        baseline: opt_f64("baseline")?,
        error: match map.get("error")? {
            Value::Null => None,
            v => Some(v.as_str()?.to_string()),
        },
    })
}

// ---------------------------------------------------------------------
// The journal itself
// ---------------------------------------------------------------------

static NAMES: LogNames = LogNames {
    header: "meta",
    record: "trial",
    fsync: "journal.fsync",
    appends: "journal.appends",
};

/// An open, append-only campaign journal.
#[derive(Debug)]
pub struct Journal {
    log: RecordLog,
}

fn scan(path: &Path) -> Result<(CampaignMeta, Vec<TrialRecord>, Committed)> {
    let mut records = Vec::new();
    let (meta, committed) = scan_log(path, &NAMES, meta_from_map, |map| {
        records.push(trial_from_map(map)?);
        Some(())
    })?;
    Ok((meta, records, committed))
}

impl Journal {
    /// Creates (truncating) a fresh journal and writes the meta line.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn create(path: impl Into<PathBuf>, meta: &CampaignMeta) -> Result<Journal> {
        let log = RecordLog::create(path.into(), &meta_line(meta), &NAMES, 1)?;
        Ok(Journal { log })
    }

    /// Opens an existing journal for resumption, returning the records
    /// already on disk; creates a fresh journal when none exists. A torn
    /// final line is truncated away before appending continues.
    ///
    /// # Errors
    /// - [`Error::JournalCorrupt`] for unparsable non-final lines;
    /// - [`Error::InvalidInstance`] when the on-disk meta disagrees with
    ///   `meta` (different instance, seed, or parameters);
    /// - [`Error::Io`] on filesystem failures.
    pub fn resume(
        path: impl Into<PathBuf>,
        meta: &CampaignMeta,
    ) -> Result<(Journal, Vec<TrialRecord>)> {
        let path = path.into();
        if !path.exists() {
            return Ok((Journal::create(path, meta)?, Vec::new()));
        }
        let (on_disk, records, committed) = scan(&path)?;
        if on_disk != *meta {
            return Err(Error::InvalidInstance {
                why: format!(
                    "journal {} was written by a different campaign \
                     (digest {:016x} seed {} params \"{}\"; expected \
                     digest {:016x} seed {} params \"{}\")",
                    path.display(),
                    on_disk.digest,
                    on_disk.seed,
                    on_disk.params,
                    meta.digest,
                    meta.seed,
                    meta.params,
                ),
            });
        }
        let log = RecordLog::reopen(path, committed, &NAMES, 1)?;
        Ok((Journal { log }, records))
    }

    /// Appends one trial record, flushed and synced before returning.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn append(&mut self, rec: &TrialRecord) -> Result<()> {
        self.log.append_with(|buf| write_trial(buf, rec))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Reads a journal without opening it for writing.
    ///
    /// # Errors
    /// Same corruption/io errors as [`Journal::resume`].
    pub fn read(path: impl AsRef<Path>) -> Result<(CampaignMeta, Vec<TrialRecord>)> {
        let (meta, records, _) = scan(path.as_ref())?;
        Ok((meta, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rds-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn meta() -> CampaignMeta {
        CampaignMeta {
            campaign: "resilience".into(),
            digest: 0xdead_beef_cafe_f00d,
            seed: 42,
            params: "m=4;n=12;mtbf=25".into(),
        }
    }

    fn rec(policy: &str, trial: u64) -> TrialRecord {
        TrialRecord {
            policy: policy.into(),
            trial,
            seed: 0x1234_5678_9abc_def0 ^ trial,
            attempts: 1,
            status: TrialStatus::Completed,
            survival: 1.0,
            restarts: 2.0,
            rejoins: 0.0,
            spec_started: 1.0,
            spec_wins: 1.0,
            cancelled: 0.0,
            wasted: 0.1 + trial as f64 * 0.3, // awkward floats on purpose
            makespan: 17.299_999_999_999_997,
            baseline: Some(12.100_000_000_000_001),
            error: None,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let path = tmp("roundtrip.journal");
        let mut j = Journal::create(&path, &meta()).unwrap();
        let records = vec![rec("lpt", 0), rec("chained-2", 1), rec("ls-group", 2)];
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);
        let (m, got) = Journal::read(&path).unwrap();
        assert_eq!(m, meta());
        assert_eq!(got, records); // bit-exact floats and u64 seeds
    }

    #[test]
    fn special_fields_round_trip() {
        let path = tmp("special.journal");
        let mut j = Journal::create(&path, &meta()).unwrap();
        let mut r = rec("quo\"ted\\policy\n", 7);
        r.status = TrialStatus::Quarantined;
        r.attempts = 3;
        r.baseline = None;
        r.error = Some("trial exceeded its wall-clock budget of 30 ms".into());
        j.append(&r).unwrap();
        drop(j);
        let (_, got) = Journal::read(&path).unwrap();
        assert_eq!(got, vec![r]);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated() {
        let path = tmp("torn.journal");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(&rec("lpt", 0)).unwrap();
        j.append(&rec("lpt", 1)).unwrap();
        drop(j);
        // Simulate a SIGKILL mid-append: half a JSON object, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"trial\",\"poli").unwrap();
        drop(f);

        let (mut j, records) = Journal::resume(&path, &meta()).unwrap();
        assert_eq!(records.len(), 2);
        // Appending after resume lands on a clean line boundary.
        j.append(&rec("lpt", 2)).unwrap();
        drop(j);
        let (_, all) = Journal::read(&path).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].trial, 2);
    }

    #[test]
    fn unterminated_but_parsable_tail_is_retried() {
        let path = tmp("unterminated.journal");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(&rec("lpt", 0)).unwrap();
        drop(j);
        // Strip the final newline: the line parses but was not committed.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let (_, records) = Journal::resume(&path, &meta()).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn corrupt_middle_line_is_an_error() {
        let path = tmp("corrupt.journal");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(&rec("lpt", 0)).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        write_trial(&mut text, &rec("lpt", 1));
        std::fs::write(&path, text).unwrap();
        let err = Journal::read(&path).unwrap_err();
        assert!(matches!(err, Error::JournalCorrupt { line: 3, .. }));
        // Resume refuses too — corruption is not silently skipped.
        assert!(Journal::resume(&path, &meta()).is_err());
    }

    #[test]
    fn meta_mismatch_is_rejected() {
        let path = tmp("mismatch.journal");
        drop(Journal::create(&path, &meta()).unwrap());
        let mut other = meta();
        other.digest ^= 1;
        let err = Journal::resume(&path, &other).unwrap_err();
        assert!(matches!(err, Error::InvalidInstance { .. }));
        let mut other = meta();
        other.params = "m=8".into();
        assert!(Journal::resume(&path, &other).is_err());
    }

    #[test]
    fn missing_file_resumes_as_fresh() {
        let path = tmp("fresh.journal");
        let _ = std::fs::remove_file(&path);
        let (mut j, records) = Journal::resume(&path, &meta()).unwrap();
        assert!(records.is_empty());
        j.append(&rec("lpt", 0)).unwrap();
        drop(j);
        assert_eq!(Journal::read(&path).unwrap().1.len(), 1);
    }

    #[test]
    fn empty_or_headerless_file_is_corrupt() {
        let path = tmp("empty.journal");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::read(&path).unwrap_err(),
            Error::JournalCorrupt { line: 1, .. }
        ));
        std::fs::write(&path, "{\"kind\":\"trial\"}\nmore\n").unwrap();
        assert!(Journal::read(&path).is_err());
    }

    #[test]
    fn out_of_range_attempts_are_an_unparsable_record() {
        let path = tmp("attempts.journal");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(&rec("lpt", 0)).unwrap();
        j.append(&rec("lpt", 1)).unwrap();
        drop(j);
        // 2^32 + 1 would wrap to 1 under a truncating cast.
        let text = std::fs::read_to_string(&path).unwrap();
        let text = text.replacen("\"attempts\":1,", "\"attempts\":4294967297,", 1);
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            Journal::read(&path),
            Err(Error::JournalCorrupt { line: 2, .. })
        ));
    }

    /// The encoder that built an owned `String` per record, kept verbatim
    /// as the byte reference for the in-place writer.
    mod owned {
        use super::super::{TrialRecord, TrialStatus};

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

        pub fn trial_line(rec: &TrialRecord) -> String {
            let mut s = String::from("{\"kind\":\"trial\",\"policy\":");
            push_json_string(&mut s, &rec.policy);
            s.push_str(&format!(
                ",\"trial\":{},\"seed\":{},\"attempts\":{},\"status\":\"{}\"",
                rec.trial,
                rec.seed,
                rec.attempts,
                rec.status.as_str()
            ));
            for (name, v) in [
                ("survival", rec.survival),
                ("restarts", rec.restarts),
                ("rejoins", rec.rejoins),
                ("spec_started", rec.spec_started),
                ("spec_wins", rec.spec_wins),
                ("cancelled", rec.cancelled),
                ("wasted", rec.wasted),
                ("makespan", rec.makespan),
            ] {
                s.push_str(&format!(",\"{name}\":"));
                push_f64(&mut s, v);
            }
            s.push_str(",\"baseline\":");
            match rec.baseline {
                Some(b) => push_f64(&mut s, b),
                None => s.push_str("null"),
            }
            s.push_str(",\"error\":");
            match &rec.error {
                Some(e) => push_json_string(&mut s, e),
                None => s.push_str("null"),
            }
            s.push_str("}\n");
            s
        }

        pub const STATUSES: [TrialStatus; 4] = [
            TrialStatus::Completed,
            TrialStatus::Partial,
            TrialStatus::Failed,
            TrialStatus::Quarantined,
        ];
    }

    mod props {
        use super::super::{trial_from_map, write_trial, TrialRecord};
        use super::owned;
        use crate::wire::parse_flat_object;
        use proptest::prelude::*;

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

        /// Strings of quotes, backslashes, control characters and
        /// non-ASCII text, mixed with arbitrary scalar values.
        fn text() -> impl Strategy<Value = String> {
            const CHARS: &[char] = &[
                '"', '\\', '\n', '\r', '\t', '\0', '\u{1f}', '\u{7f}', '/', 'a', ' ', 'é', 'λ',
                '复', '🦀', '\u{2028}', '\u{feff}',
            ];
            prop::collection::vec((any::<bool>(), any::<u32>()), 0..16).prop_map(|chars| {
                chars
                    .into_iter()
                    .map(|(pick, x)| {
                        if pick {
                            CHARS[x as usize % CHARS.len()]
                        } else {
                            char::from_u32(x % 0x11_0000).unwrap_or('\u{fffd}')
                        }
                    })
                    .collect()
            })
        }

        fn record() -> impl Strategy<Value = TrialRecord> {
            (
                (text(), int(), int(), (0u8..3, any::<u32>()), 0usize..4),
                prop::collection::vec(float(), 9),
                (any::<bool>(), any::<bool>(), text()),
            )
                .prop_map(
                    |((policy, trial, seed, (pick, a), status), f, (baseline, error, why))| {
                        TrialRecord {
                            policy,
                            trial,
                            seed,
                            attempts: match pick {
                                0 => u32::MAX - a % 4,
                                1 => a % 8,
                                _ => a,
                            },
                            status: owned::STATUSES[status],
                            survival: f[0],
                            restarts: f[1],
                            rejoins: f[2],
                            spec_started: f[3],
                            spec_wins: f[4],
                            cancelled: f[5],
                            wasted: f[6],
                            makespan: f[7],
                            baseline: baseline.then_some(f[8]),
                            error: error.then_some(why),
                        }
                    },
                )
        }

        /// What a trial line decodes to under the `null` rule: a
        /// non-finite number is written as `null`, so a required field
        /// makes the line unparsable and the baseline reads back absent.
        fn decoded(rec: &TrialRecord) -> Option<TrialRecord> {
            let required = [
                rec.survival,
                rec.restarts,
                rec.rejoins,
                rec.spec_started,
                rec.spec_wins,
                rec.cancelled,
                rec.wasted,
                rec.makespan,
            ];
            required.iter().all(|v| v.is_finite()).then(|| TrialRecord {
                baseline: rec.baseline.filter(|b| b.is_finite()),
                ..rec.clone()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn trial_writer_matches_the_owned_encoder_and_round_trips(rec in record()) {
                // The writer appends to a batch that already holds records.
                let mut batch = String::from("{\"kind\":\"trial\"}\n");
                let start = batch.len();
                write_trial(&mut batch, &rec);
                let line = &batch[start..];
                prop_assert_eq!(line, owned::trial_line(&rec).as_str());
                let got = parse_flat_object(line.strip_suffix('\n').unwrap())
                    .and_then(|map| trial_from_map(&map));
                // Debug output tells -0.0 from 0.0, so this is bit-exact.
                prop_assert_eq!(format!("{got:?}"), format!("{:?}", decoded(&rec)));
            }
        }
    }
}
