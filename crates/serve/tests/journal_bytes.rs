//! Byte-level property tests on the serve journal: a journal cut at any
//! byte reads and resumes to exactly the terminal records whose newline
//! survived, and arbitrary bytes after a journal — a cut UTF-8 sequence
//! included — never panic and never surface as an I/O error.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rds_core::Error;
use rds_serve::{DrainRecord, ServeConfig, ServeJournal, TerminalKind, TerminalRecord};

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-serve-journal-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.jsonl",
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn cfg() -> ServeConfig {
    let mut cfg = ServeConfig::poisson(4, 2, 2.0, 100);
    cfg.fsync_every = 3;
    cfg
}

fn records(count: usize) -> Vec<TerminalRecord> {
    (0..count as u64)
        .map(|seq| {
            let kind =
                [TerminalKind::Done, TerminalKind::Shed, TerminalKind::Failed][seq as usize % 3];
            TerminalRecord {
                seq,
                kind,
                arrival: 0.3 * seq as f64,
                at: 1.0 + seq as f64 / 7.0,
                attempts: u32::from(kind != TerminalKind::Shed),
                machine: (kind == TerminalKind::Done).then_some(seq as usize % 4),
            }
        })
        .collect()
}

fn drain(recs: &[TerminalRecord]) -> DrainRecord {
    let count = |kind| recs.iter().filter(|r| r.kind == kind).count() as u64;
    DrainRecord {
        at: 99.5,
        admitted: recs.len() as u64,
        completed: count(TerminalKind::Done),
        shed: count(TerminalKind::Shed),
        failed: count(TerminalKind::Failed),
    }
}

/// Writes a complete, drained journal of `recs` and returns its bytes.
fn write_journal(path: &Path, recs: &[TerminalRecord]) -> Vec<u8> {
    let mut journal = ServeJournal::create(path, &cfg()).unwrap();
    for rec in recs {
        assert!(journal.append_terminal(rec).unwrap());
    }
    journal.seal(&drain(recs)).unwrap();
    drop(journal);
    std::fs::read(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_cut_journal_keeps_exactly_its_committed_records(
        count in 0usize..9,
        cut_sel in any::<u64>(),
        before_newline in any::<bool>(),
    ) {
        let recs = records(count);
        let path = tmp("cut");
        let full = write_journal(&path, &recs);
        // Half the cuts land right before a newline: a whole line that
        // was never committed.
        let offsets: Vec<usize> = if before_newline {
            (0..full.len()).filter(|&i| full[i] == b'\n').collect()
        } else {
            (0..=full.len()).collect()
        };
        let cut = offsets[(cut_sel % offsets.len() as u64) as usize];
        std::fs::write(&path, &full[..cut]).unwrap();
        let lines = full[..cut].iter().filter(|&&b| b == b'\n').count();
        let committed = full[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);

        if lines == 0 {
            // The header itself was cut: nothing identifies the run.
            prop_assert!(matches!(
                ServeJournal::read(&path),
                Err(Error::JournalCorrupt { line: 1, .. })
            ));
            prop_assert!(matches!(
                ServeJournal::resume(&path, &cfg()),
                Err(Error::JournalCorrupt { line: 1, .. })
            ));
        } else {
            // Line 1 is the header and the drain line comes last.
            let survived = &recs[..(lines - 1).min(count)];
            let log = ServeJournal::read(&path).unwrap();
            prop_assert_eq!(log.records.as_slice(), survived);
            prop_assert_eq!(log.drain.is_some(), lines == count + 2);
            prop_assert_eq!(log.duplicates, 0);
            let journal = ServeJournal::resume(&path, &cfg()).unwrap();
            prop_assert_eq!(journal.terminal_count(), survived.len());
            for rec in &recs {
                let expect = (rec.seq < survived.len() as u64).then_some(rec.kind);
                prop_assert_eq!(journal.already(rec.seq), expect);
            }
            drop(journal);
            // Resume truncated the debris: the file is the committed prefix.
            prop_assert_eq!(std::fs::read(&path).unwrap(), full[..committed].to_vec());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_after_a_journal_are_debris_or_typed_corruption(
        count in 0usize..6,
        tail in prop::collection::vec(0u8..=255, 0..48),
        newline_at in 0usize..48,
    ) {
        let recs = records(count);
        let path = tmp("tail");
        let clean = write_journal(&path, &recs);
        // Half the tails get a newline somewhere, so a line after the
        // journal's end is committed.
        let mut tail = tail;
        if newline_at < tail.len() {
            tail[newline_at] = b'\n';
        }
        let mut bytes = clean.clone();
        bytes.extend_from_slice(&tail);
        std::fs::write(&path, &bytes).unwrap();

        let read = ServeJournal::read(&path).map(|log| log.records);
        let resumed = ServeJournal::resume(&path, &cfg()).map(|j| j.terminal_count());
        if tail.contains(&b'\n') {
            match read {
                Ok(got) => prop_assert!(got.starts_with(&recs)),
                Err(Error::JournalCorrupt { .. }) => {}
                Err(e) => panic!("tail {tail:?} gave {e}"),
            }
            match resumed {
                Ok(known) => prop_assert!(known >= count),
                Err(Error::JournalCorrupt { .. }) => {}
                Err(e) => panic!("tail {tail:?} gave {e}"),
            }
        } else {
            prop_assert_eq!(read.unwrap(), recs);
            prop_assert_eq!(resumed.unwrap(), count);
            prop_assert_eq!(std::fs::read(&path).unwrap(), clean);
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_cut_utf8_sequence_after_a_journal_resumes_cleanly() {
    // `printf '\xc3' >> journal`: the byte a SIGKILL leaves when it cuts
    // a two-byte character.
    let recs = records(5);
    let path = tmp("c3");
    let clean = write_journal(&path, &recs);
    let mut bytes = clean.clone();
    bytes.push(0xc3);
    std::fs::write(&path, &bytes).unwrap();
    let journal = ServeJournal::resume(&path, &cfg()).unwrap();
    assert_eq!(journal.terminal_count(), recs.len());
    drop(journal);
    assert_eq!(std::fs::read(&path).unwrap(), clean);
    std::fs::remove_file(&path).ok();
}
