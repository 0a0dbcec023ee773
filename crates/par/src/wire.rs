//! The on-disk layer shared by both append-only journals (the `rds-par`
//! campaign journal and the `rds-serve` task journal): a flat-JSON line
//! codec and the crash-safe record log the lines are written to.
//!
//! The writers emit exactly one flat JSON object per line — no nesting,
//! no arrays — so the reader can be a small hand-rolled parser instead
//! of a serde dependency. Numbers are kept as raw tokens on parse so
//! `u64` and `f64` both round-trip exactly (`f64` via Rust's
//! shortest-round-trip `Display`), which is what makes `--resume`
//! byte-identical.
//!
//! The record log ([`scan_log`], [`RecordLog`]) is the one crash-safety
//! implementation under both journals:
//! - a line is **committed** once its newline is on disk. Anything after
//!   the last committed line — a torn write, a cut multibyte character,
//!   stray bytes, an unparsable final line — is crash debris, and
//!   reopening the log truncates it away;
//! - an unparsable line, or invalid UTF-8, *before* the last committed
//!   line is real corruption and surfaces as [`Error::JournalCorrupt`];
//! - writes are buffered and made durable with one write plus
//!   `sync_data` every `sync_every` records, so a SIGKILL loses at most
//!   the unsynced batch and never corrupts the committed prefix;
//! - a record is encoded straight into that batch buffer
//!   ([`RecordLog::append_with`]), with no owned line per record.

use rds_core::{Error, Result};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Appends `s` as a JSON string literal (quotes + escapes).
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number token (`null` for NaN/±∞).
///
/// Rust's `Display` for `f64` is shortest-round-trip: parsing the
/// emitted token recovers the exact bits, which is what makes resumed
/// aggregates byte-identical.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A parsed flat-JSON value, numbers kept as raw tokens for exact
/// round-tripping of both `u64` and `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A JSON number, kept as its raw source token.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (the only shape the writers emit).
/// Returns `None` on any syntax error — the caller decides whether that
/// is a torn tail or corruption.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Value>> {
    let mut chars = line.trim().chars().peekable();
    let mut map = BTreeMap::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
        if chars.next()? != '"' {
            return None;
        }
        let mut s = String::new();
        loop {
            match chars.next()? {
                '"' => return Some(s),
                '\\' => match chars.next()? {
                    '"' => s.push('"'),
                    '\\' => s.push('\\'),
                    '/' => s.push('/'),
                    'n' => s.push('\n'),
                    'r' => s.push('\r'),
                    't' => s.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + chars.next()?.to_digit(16)?;
                        }
                        s.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                c => s.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    if chars.next()? != '{' {
        return None;
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next()? != ':' {
                return None;
            }
            skip_ws(&mut chars);
            let value = match *chars.peek()? {
                '"' => Value::Str(parse_string(&mut chars)?),
                't' => {
                    for expect in "true".chars() {
                        if chars.next()? != expect {
                            return None;
                        }
                    }
                    Value::Bool(true)
                }
                'f' => {
                    for expect in "false".chars() {
                        if chars.next()? != expect {
                            return None;
                        }
                    }
                    Value::Bool(false)
                }
                'n' => {
                    for expect in "null".chars() {
                        if chars.next()? != expect {
                            return None;
                        }
                    }
                    Value::Null
                }
                _ => {
                    let mut raw = String::new();
                    while chars
                        .peek()
                        .is_some_and(|&c| c.is_ascii_digit() || "+-.eE".contains(c))
                    {
                        raw.push(chars.next()?);
                    }
                    if raw.is_empty() || raw.parse::<f64>().is_err() {
                        return None;
                    }
                    Value::Num(raw)
                }
            };
            map.insert(key, value);
            skip_ws(&mut chars);
            match chars.next()? {
                ',' => continue,
                '}' => break,
                _ => return None,
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None; // trailing garbage on the line
    }
    Some(map)
}

/// The names one record log reports under: its line kinds in
/// [`Error::JournalCorrupt`] messages and its two metrics.
#[derive(Debug)]
pub struct LogNames {
    /// Kind of the header line (`"meta"`).
    pub header: &'static str,
    /// Noun for every line after the header (`"trial"`).
    pub record: &'static str,
    /// Histogram timing each write + `sync_data` (`"journal.fsync"`).
    pub fsync: &'static str,
    /// Counter of appended records (`"journal.appends"`).
    pub appends: &'static str,
}

/// Where a scanned log's committed prefix ends: what [`scan_log`]
/// found and [`RecordLog::reopen`] cuts the file back to.
#[derive(Debug, Clone, Copy)]
pub struct Committed {
    /// Byte length up to and including the last committed newline.
    len: u64,
    /// `true` when crash debris follows the committed prefix.
    torn: bool,
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> Error {
    Error::Io {
        op,
        path: path.display().to_string(),
        why: e.to_string(),
    }
}

/// Reads a record log. `header` decodes the first committed line and
/// `record` every later one, each from the line's parsed flat object,
/// returning `None` for a line they cannot decode. Returns the decoded
/// header and where the committed prefix ends.
///
/// # Errors
/// - [`Error::JournalCorrupt`] when a line that does not decode, or
///   invalid UTF-8, comes before the last committed line, or when no
///   header line was committed at all (`line: 1`);
/// - [`Error::Io`] when the file cannot be read.
pub fn scan_log<H>(
    path: &Path,
    names: &LogNames,
    mut header: impl FnMut(&BTreeMap<String, Value>) -> Option<H>,
    mut record: impl FnMut(&BTreeMap<String, Value>) -> Option<()>,
) -> Result<(H, Committed)> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err("read", path, &e))?;
    // A SIGKILL can cut a multibyte character: invalid UTF-8 at the very
    // end is a torn tail, invalid UTF-8 followed by more lines is real
    // corruption.
    let text = match std::str::from_utf8(&bytes) {
        Ok(s) => s,
        Err(e) => {
            let cut = e.valid_up_to();
            if bytes[cut..].contains(&b'\n') {
                return Err(Error::JournalCorrupt {
                    line: bytes[..cut].iter().filter(|&&b| b == b'\n').count() + 1,
                    why: "invalid utf-8 before the final line".to_string(),
                });
            }
            std::str::from_utf8(&bytes[..cut]).expect("validated prefix")
        }
    };

    let mut head = None;
    let mut committed = 0usize;
    // Only newline-terminated lines are offered to the decoders: an
    // unterminated final line was never committed, whether or not it
    // happens to parse.
    for (index, line) in text.split_inclusive('\n').enumerate() {
        let Some(line) = line.strip_suffix('\n') else {
            break;
        };
        let decoded = parse_flat_object(line).and_then(|map| {
            if index == 0 {
                head = Some(header(&map)?);
                Some(())
            } else {
                record(&map)
            }
        });
        let end = committed + line.len() + 1;
        match decoded {
            Some(()) => committed = end,
            None if end == text.len() => {}
            None => {
                return Err(Error::JournalCorrupt {
                    line: index + 1,
                    why: if index == 0 {
                        format!("first line is not a valid {} record", names.header)
                    } else {
                        format!("unparsable {} record before the final line", names.record)
                    },
                });
            }
        }
    }
    let head = head.ok_or_else(|| Error::JournalCorrupt {
        line: 1,
        why: format!("journal has no {} line", names.header),
    })?;
    Ok((
        head,
        Committed {
            len: committed as u64,
            torn: committed < bytes.len(),
        },
    ))
}

/// An open append-only record log: one header line, then one line per
/// record, buffered and made durable every `sync_every` records.
#[derive(Debug)]
pub struct RecordLog {
    file: File,
    path: PathBuf,
    names: &'static LogNames,
    buf: String,
    buffered: usize,
    sync_every: usize,
}

impl RecordLog {
    /// Creates (truncating) a fresh log, its directory included, and
    /// makes `header` durable with one write and one `sync_data`, so even
    /// an instant crash leaves a valid file.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn create(
        path: PathBuf,
        header: &str,
        names: &'static LogNames,
        sync_every: usize,
    ) -> Result<RecordLog> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| io_err("create-dir", &path, &e))?;
        }
        let mut file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
        file.write_all(header.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| io_err("append", &path, &e))?;
        Ok(RecordLog::open(file, path, names, sync_every))
    }

    /// Reopens a log [`scan_log`] read, cutting the crash debris after
    /// its committed prefix, for appending after that prefix.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn reopen(
        path: PathBuf,
        committed: Committed,
        names: &'static LogNames,
        sync_every: usize,
    ) -> Result<RecordLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        if committed.torn {
            file.set_len(committed.len)
                .map_err(|e| io_err("truncate", &path, &e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, &e))?;
        Ok(RecordLog::open(file, path, names, sync_every))
    }

    fn open(file: File, path: PathBuf, names: &'static LogNames, sync_every: usize) -> Self {
        RecordLog {
            file,
            path,
            names,
            buf: String::new(),
            buffered: 0,
            sync_every: sync_every.max(1),
        }
    }

    /// Appends one record, which `encode` writes (newline included)
    /// straight onto the end of the batch buffer, and syncs the batch
    /// once it holds `sync_every` records.
    ///
    /// # Errors
    /// [`Error::Io`] if the batch sync fails.
    pub fn append_with(&mut self, encode: impl FnOnce(&mut String)) -> Result<()> {
        if rds_obs::enabled() {
            rds_obs::global().counter(self.names.appends).inc();
        }
        encode(&mut self.buf);
        self.buffered += 1;
        if self.buffered >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends a closing `line` that is not counted as a record, and
    /// syncs everything buffered.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn seal(&mut self, line: &str) -> Result<()> {
        self.buf.push_str(line);
        self.sync()
    }

    /// Writes the buffered batch with one write + `sync_data`.
    ///
    /// # Errors
    /// [`Error::Io`] on any filesystem failure.
    pub fn sync(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let obs = rds_obs::enabled().then(|| rds_obs::global().histogram(self.names.fsync));
        let started = std::time::Instant::now();
        self.file
            .write_all(self.buf.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err("append", &self.path, &e))?;
        if let Some(h) = obs {
            h.record(started.elapsed());
        }
        self.buf.clear();
        self.buffered = 0;
        Ok(())
    }

    /// Drops the unsynced batch, as a SIGKILL would: the synced prefix
    /// survives, the in-memory records do not.
    pub fn drop_unsynced(&mut self) {
        self.buf.clear();
        self.buffered = 0;
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_escapes() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        let line = format!("{{\"k\":{s}}}");
        let map = parse_flat_object(&line).unwrap();
        assert_eq!(map["k"].as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123_456_789.123_456_78] {
            let mut s = String::from("{\"x\":");
            push_f64(&mut s, v);
            s.push('}');
            let map = parse_flat_object(&s).unwrap();
            assert_eq!(map["x"].as_f64(), Some(v));
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_flat_object("{\"a\":1").is_none());
        assert!(parse_flat_object("{\"a\":1} extra").is_none());
        assert!(parse_flat_object("[1,2]").is_none());
        assert!(parse_flat_object("{\"a\":+-}").is_none());
    }

    #[test]
    fn bools_and_nulls_parse() {
        let map = parse_flat_object("{\"t\":true,\"f\":false,\"n\":null}").unwrap();
        assert_eq!(map["t"].as_bool(), Some(true));
        assert_eq!(map["f"].as_bool(), Some(false));
        assert_eq!(map["n"], Value::Null);
    }
}
