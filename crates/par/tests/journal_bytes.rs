//! Byte-level property tests on the campaign journal: a journal cut at
//! any byte reads and resumes to exactly the records whose newline
//! survived, and arbitrary bytes after a journal never panic and never
//! surface as an I/O error — a tail without a newline is crash debris,
//! anything else is either tolerated or typed corruption.

use proptest::prelude::*;
use rds_core::Error;
use rds_par::{CampaignMeta, Journal, TrialRecord, TrialStatus};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Unique temp path per proptest case (cases run in one process).
static CASE: AtomicUsize = AtomicUsize::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rds-par-journal-bytes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.journal",
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn meta() -> CampaignMeta {
    CampaignMeta {
        campaign: "resilience".into(),
        digest: 0x0123_4567_89ab_cdef,
        seed: 7,
        params: "m=4;n=20;α=1.5".into(),
    }
}

/// Trial records whose policy and error strings hold two-, three- and
/// four-byte UTF-8 characters, so some cuts land inside one.
fn records(count: usize) -> Vec<TrialRecord> {
    (0..count as u64)
        .map(|t| {
            let quarantined = t % 3 == 2;
            TrialRecord {
                policy: ["lpt", "chaîné-2", "groupe-λ", "复制-3"][t as usize % 4].into(),
                trial: t,
                seed: 0x9e37_79b9_7f4a_7c15 ^ t,
                attempts: 1 + (t % 3) as u32,
                status: if quarantined {
                    TrialStatus::Quarantined
                } else {
                    TrialStatus::Completed
                },
                survival: 1.0 - 0.05 * t as f64,
                restarts: t as f64,
                rejoins: 0.0,
                spec_started: 0.5 * t as f64,
                spec_wins: 0.0,
                cancelled: 0.0,
                wasted: 0.1 * t as f64,
                makespan: 17.3 + t as f64 / 3.0,
                baseline: (t % 2 == 0).then_some(12.1),
                error: quarantined.then(|| "délai dépassé ⏱ après 30 ms 🦀".to_string()),
            }
        })
        .collect()
}

/// Writes a complete journal of `recs` at `path` and returns its bytes.
fn write_journal(path: &Path, recs: &[TrialRecord]) -> Vec<u8> {
    let mut journal = Journal::create(path, &meta()).unwrap();
    for rec in recs {
        journal.append(rec).unwrap();
    }
    drop(journal);
    std::fs::read(path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_cut_journal_keeps_exactly_its_committed_records(
        count in 0usize..7,
        cut_sel in any::<u64>(),
        aim in 0u8..3,
    ) {
        let recs = records(count);
        let path = temp_path("cut");
        let full = write_journal(&path, &recs);
        // A third of the cuts land inside a multibyte character (right
        // before a UTF-8 continuation byte) and a third right before a
        // newline (a whole line that was never committed).
        let offsets: Vec<usize> = match aim {
            0 => (0..full.len()).filter(|&i| full[i] & 0xc0 == 0x80).collect(),
            1 => (0..full.len()).filter(|&i| full[i] == b'\n').collect(),
            _ => (0..=full.len()).collect(),
        };
        let cut = offsets[(cut_sel % offsets.len() as u64) as usize];
        std::fs::write(&path, &full[..cut]).unwrap();
        let lines = full[..cut].iter().filter(|&&b| b == b'\n').count();
        let committed = full[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);

        if lines == 0 {
            // The header itself was cut: nothing identifies the campaign.
            prop_assert!(matches!(
                Journal::read(&path),
                Err(Error::JournalCorrupt { line: 1, .. })
            ));
            prop_assert!(matches!(
                Journal::resume(&path, &meta()),
                Err(Error::JournalCorrupt { line: 1, .. })
            ));
        } else {
            let survived = recs[..lines - 1].to_vec();
            let (on_disk, read) = Journal::read(&path).unwrap();
            prop_assert_eq!(on_disk, meta());
            prop_assert_eq!(&read, &survived);
            let (journal, resumed) = Journal::resume(&path, &meta()).unwrap();
            drop(journal);
            prop_assert_eq!(&resumed, &survived);
            // Resume truncated the debris: the file is the committed prefix.
            prop_assert_eq!(std::fs::read(&path).unwrap(), full[..committed].to_vec());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_after_a_journal_are_debris_or_typed_corruption(
        count in 0usize..5,
        tail in prop::collection::vec(0u8..=255, 0..48),
        newline_at in 0usize..48,
    ) {
        let recs = records(count);
        let path = temp_path("tail");
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

        let read = Journal::read(&path).map(|(_, recs)| recs);
        let resumed = Journal::resume(&path, &meta()).map(|(_, recs)| recs);
        if tail.contains(&b'\n') {
            for outcome in [read, resumed] {
                match outcome {
                    Ok(got) => prop_assert!(got.starts_with(&recs)),
                    Err(Error::JournalCorrupt { .. }) => {}
                    Err(e) => panic!("tail {tail:?} gave {e}"),
                }
            }
        } else {
            prop_assert_eq!(read.unwrap(), recs.clone());
            prop_assert_eq!(resumed.unwrap(), recs);
            prop_assert_eq!(std::fs::read(&path).unwrap(), clean);
        }
        std::fs::remove_file(&path).ok();
    }
}
