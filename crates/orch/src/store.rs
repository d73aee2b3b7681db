//! Append-only, crash-tolerant, self-checking persistence for study
//! shards.
//!
//! Layout under the store root:
//!
//! ```text
//! results/store/<study-key>/
//!   manifest.json       # study identity + config (atomic tmp+rename)
//!   shards.jsonl        # one checksummed JSON line per completed shard
//!   shards.quarantine/  # corrupt logs moved aside by fsck --repair
//! ```
//!
//! Every shard line carries a CRC-32 suffix (`{json}\tcrc32=xxxxxxxx`),
//! so corruption is *detected*, never silently merged. The failure
//! contract of [`StudyStore::shards`]:
//!
//! - A torn **trailing** line (killed writer) is skipped: resume sees
//!   exactly the shards whose writes completed.
//! - Corruption anywhere **earlier** is an error pointing at
//!   `vulfi store fsck`, which quarantines the damaged log, salvages
//!   every checksum-valid record, and lets the scheduler re-run the
//!   lost jobs.
//!
//! The manifest is only ever replaced via write-to-temp + `rename`,
//! which is atomic on POSIX. Appends retry transient I/O errors with
//! capped exponential backoff, rolling the file back to its pre-append
//! length between attempts so a partial write is never left mid-file.
//!
//! The line format, torn-tail handling, quarantine, and retry machinery
//! live in the record-generic [`CheckedLog`], which the trace store
//! ([`crate::tracestore`]) reuses verbatim — one implementation, one
//! failure contract, two record types.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

use vir::analysis::SiteCategory;
use vulfi::{Experiment, StudyConfig};

use crate::crc::crc32;
use crate::key::StudyKey;
use crate::OrchError;

/// Study identity + configuration, persisted next to the shard log.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Manifest {
    pub key: StudyKey,
    pub workload: String,
    pub isa: String,
    pub category: SiteCategory,
    pub entry: String,
    pub cfg: StudyConfig,
    /// Shards in the current plan (informational; the plan is recomputed
    /// deterministically from `cfg` and the shard size).
    pub total_shards: u64,
    /// All campaigns covered and merged at least once.
    pub complete: bool,
}

/// One completed shard: a contiguous run of experiments of one campaign.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ShardRecord {
    pub campaign: usize,
    /// Experiment index range `[start, end)` within the campaign.
    pub start: usize,
    pub end: usize,
    pub experiments: Vec<Experiment>,
    /// Wall time this shard took when first executed (informational; not
    /// part of the deterministic result).
    pub wall_ns: u64,
}

/// Result of classifying every non-blank line of a checksummed log.
#[derive(Debug)]
pub(crate) struct LogScan<T> {
    /// Non-blank lines inspected.
    pub lines: usize,
    /// Checksum-valid, parseable records, in file order.
    pub records: Vec<T>,
    /// The last non-blank line is torn (killed writer).
    pub torn_tail: bool,
    /// Corrupt non-tail lines as `(1-based line number, reason)`.
    pub corrupt: Vec<(usize, String)>,
}

impl<T> Default for LogScan<T> {
    fn default() -> LogScan<T> {
        LogScan {
            lines: 0,
            records: Vec::new(),
            torn_tail: false,
            corrupt: Vec::new(),
        }
    }
}

/// Health report for one study's checksummed log (see
/// [`StudyStore::fsck`] / `TraceLog::fsck`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyFsck {
    pub key: StudyKey,
    /// Non-blank lines inspected.
    pub lines: usize,
    /// Checksum-valid, parseable records.
    pub valid: usize,
    /// A torn trailing line (killed writer) — recoverable by re-running.
    pub torn_tail: bool,
    /// Corrupt non-tail lines as `(1-based line number, reason)`.
    pub corrupt: Vec<(usize, String)>,
    /// Where the damaged log was moved, when repair ran.
    pub quarantined: Option<PathBuf>,
}

impl StudyFsck {
    /// Anything wrong at all (including a recoverable torn tail)?
    pub fn dirty(&self) -> bool {
        self.torn_tail || !self.corrupt.is_empty()
    }

    /// Corruption that [`StudyStore::shards`] refuses to read past.
    pub fn needs_repair(&self) -> bool {
        !self.corrupt.is_empty()
    }
}

/// Store-wide fsck report: one entry per checked log (each study's
/// shard log and, in a service store, the journal and the telemetry
/// series).
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    pub studies: Vec<StudyFsck>,
}

impl FsckReport {
    pub fn needs_repair(&self) -> bool {
        self.studies.iter().any(StudyFsck::needs_repair)
    }

    pub fn dirty(&self) -> bool {
        self.studies.iter().any(StudyFsck::dirty)
    }
}

/// A directory of studies, each under its content-addressed key.
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Store, OrchError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| OrchError(format!("create store {}: {e}", root.display())))?;
        Ok(Store { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn study(&self, key: &StudyKey) -> StudyStore {
        StudyStore::at(self.root.join(&key.0))
    }

    /// Keys of every study directory containing a manifest.
    pub fn studies(&self) -> Result<Vec<StudyKey>, OrchError> {
        let mut keys = Vec::new();
        let entries = fs::read_dir(&self.root)
            .map_err(|e| OrchError(format!("read store {}: {e}", self.root.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| OrchError(format!("read store entry: {e}")))?;
            if entry.path().join("manifest.json").is_file() {
                keys.push(StudyKey(entry.file_name().to_string_lossy().into_owned()));
            }
        }
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keys)
    }

    /// Check (and with `repair`, heal) every checksummed log under the
    /// store root: each study's shard log, and the service's journal
    /// and telemetry series when the store has them.
    pub fn fsck(&self, repair: bool) -> Result<FsckReport, OrchError> {
        let mut report = FsckReport::default();
        for key in self.studies()? {
            report.studies.push(self.study(&key).fsck(repair)?);
        }
        if self.root.join("events").join("ops.jsonl").is_file() {
            let journal = crate::OpsLog::open(&self.root)?;
            report.studies.push(journal.fsck(repair)?);
        }
        if self.root.join("telemetry").join("series.jsonl").is_file() {
            let series = crate::TelemetryLog::open(&self.root)?;
            report.studies.push(series.fsck(repair)?);
        }
        Ok(report)
    }
}

/// Transient I/O error kinds worth retrying.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Retry `op` on transient I/O errors with capped exponential backoff
/// (1 ms doubling to 50 ms, at most 5 retries). `op` must be safe to
/// re-run wholesale — callers roll back partial effects at the top of
/// the closure. Every retry increments the store-retry counter of the
/// global metrics registry.
fn with_io_retry<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_millis(1);
    let mut retries = 0;
    loop {
        match op() {
            Err(e) if is_transient(&e) && retries < 5 => {
                retries += 1;
                crate::metrics::global().inc_store_retries();
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(50));
            }
            other => return other,
        }
    }
}

/// Render one checksummed log line (no newlines).
pub(crate) fn encode_record_line<T: serde::Serialize>(rec: &T) -> Result<String, OrchError> {
    let json = serde_json::to_string(rec).map_err(|e| OrchError(format!("encode record: {e}")))?;
    let crc = crc32(json.as_bytes());
    Ok(format!("{json}\tcrc32={crc:08x}"))
}

/// Parse one checksummed log line: verify the CRC suffix (when present —
/// lines from older stores have none and parse unchecked), then decode.
pub(crate) fn parse_record_line<T: serde::Deserialize>(line: &str) -> Result<T, String> {
    let json = match line.rsplit_once('\t') {
        Some((json, tail)) if tail.starts_with("crc32=") => {
            let want = u32::from_str_radix(&tail["crc32=".len()..], 16)
                .map_err(|_| format!("malformed checksum suffix {tail:?}"))?;
            let got = crc32(json.as_bytes());
            if got != want {
                return Err(format!(
                    "checksum mismatch (recorded {want:08x}, computed {got:08x})"
                ));
            }
            json
        }
        _ => line,
    };
    serde_json::from_str(json).map_err(|e| format!("unparseable record: {e}"))
}

/// A checksummed, append-only JSONL log with torn-tail recovery and
/// quarantine — the shared persistence engine behind both the result
/// shard log and the trace shard log.
pub(crate) struct CheckedLog {
    /// The log file (e.g. `<study>/shards.jsonl`).
    path: PathBuf,
    /// Quarantine directory for damaged logs.
    qdir: PathBuf,
    /// Remediation hint appended to corruption errors (the command that
    /// repairs this log).
    repair_hint: &'static str,
}

impl CheckedLog {
    pub(crate) fn new(path: PathBuf, qdir: PathBuf, repair_hint: &'static str) -> CheckedLog {
        CheckedLog {
            path,
            qdir,
            repair_hint,
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record as a single checksummed JSONL line.
    ///
    /// The record is written with a *leading* newline so that a
    /// truncated line left by a killed writer (which has no trailing
    /// newline) is terminated rather than concatenated with this
    /// record; the reader skips the resulting blank lines. Transient
    /// I/O errors are retried with backoff; between attempts the file
    /// is rolled back to its pre-append length so a partial write can
    /// never end up mid-file.
    pub(crate) fn append<T: serde::Serialize>(&self, rec: &T) -> Result<(), OrchError> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)
                .map_err(|e| OrchError(format!("create {}: {e}", dir.display())))?;
        }
        let line = encode_record_line(rec)?;
        let payload = format!("\n{line}\n");
        let mut f = with_io_retry(|| {
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
        })
        .map_err(|e| OrchError(format!("open {}: {e}", self.path.display())))?;
        let before = f
            .metadata()
            .map_err(|e| OrchError(format!("stat {}: {e}", self.path.display())))?
            .len();
        with_io_retry(|| {
            f.set_len(before)?;
            f.write_all(payload.as_bytes())?;
            f.flush()
        })
        .map_err(|e| OrchError(format!("append to {}: {e}", self.path.display())))?;
        Ok(())
    }

    /// Classify every non-blank line of the log.
    pub(crate) fn scan<T: serde::Deserialize>(&self) -> Result<LogScan<T>, OrchError> {
        let bytes = match fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LogScan::default()),
            Err(e) => return Err(OrchError(format!("read {}: {e}", self.path.display()))),
        };
        // Corruption can hit any byte, including one that breaks UTF-8;
        // decode lossily so the damage surfaces as a checksum-failing
        // line (fsck's department), not an unreadable store.
        let text = String::from_utf8_lossy(&bytes);
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut scan = LogScan {
            lines: lines.len(),
            ..LogScan::default()
        };
        for (pos, (lineno, line)) in lines.iter().enumerate() {
            match parse_record_line(line) {
                Ok(rec) => scan.records.push(rec),
                // Only the final line can be a torn write from a kill.
                Err(_) if pos == lines.len() - 1 => scan.torn_tail = true,
                Err(reason) => scan.corrupt.push((lineno + 1, reason)),
            }
        }
        Ok(scan)
    }

    /// All fully-written records.
    ///
    /// A torn **trailing** line (from a killed run) is skipped, not an
    /// error. Corruption anywhere earlier — a failed checksum or an
    /// unparseable record that further appends have since buried — is an
    /// error: silently dropping it would skew whatever is derived from
    /// this log without a trace.
    pub(crate) fn records<T: serde::Deserialize>(&self) -> Result<Vec<T>, OrchError> {
        let scan = self.scan()?;
        if let Some((lineno, reason)) = scan.corrupt.first() {
            return Err(OrchError(format!(
                "corrupt log {} at line {lineno}: {reason}; run `{}` to quarantine and recover",
                self.path.display(),
                self.repair_hint,
            )));
        }
        Ok(scan.records)
    }

    /// Heal the one failure a kill is *expected* to leave: a torn
    /// trailing line. The log is atomically rewritten (temp + rename)
    /// from its valid records so that subsequent appends cannot bury the
    /// torn fragment mid-file, where it would read as corruption.
    /// Returns whether a trim happened. Mid-file corruption is *not*
    /// healed here — that is fsck's job.
    pub(crate) fn trim_torn_tail<T: serde::Serialize + serde::Deserialize>(
        &self,
    ) -> Result<bool, OrchError> {
        let scan = self.scan::<T>()?;
        if !scan.corrupt.is_empty() {
            return Err(OrchError(format!(
                "corrupt log {}: run `{}`",
                self.path.display(),
                self.repair_hint,
            )));
        }
        if !scan.torn_tail {
            return Ok(false);
        }
        self.rewrite(&scan.records)?;
        Ok(true)
    }

    /// Atomically replace the log with exactly `records`.
    pub(crate) fn rewrite<T: serde::Serialize>(&self, records: &[T]) -> Result<(), OrchError> {
        let mut text = String::new();
        for rec in records {
            text.push_str(&encode_record_line(rec)?);
            text.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        fs::write(&tmp, text.as_bytes())
            .map_err(|e| OrchError(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &self.path)
            .map_err(|e| OrchError(format!("replace {}: {e}", self.path.display())))?;
        Ok(())
    }

    /// Check this log; with `repair`, heal it (quarantine the damaged
    /// file, salvage every checksum-valid record into a fresh log).
    /// Returns the report *without* the owner-specific follow-up (e.g.
    /// clearing a manifest's `complete` flag) — callers layer that on.
    pub(crate) fn fsck<T: serde::Serialize + serde::Deserialize>(
        &self,
        key: StudyKey,
        repair: bool,
    ) -> Result<StudyFsck, OrchError> {
        let scan = self.scan::<T>()?;
        let mut report = StudyFsck {
            key,
            lines: scan.lines,
            valid: scan.records.len(),
            torn_tail: scan.torn_tail,
            corrupt: scan.corrupt,
            quarantined: None,
        };
        if repair && report.dirty() {
            report.quarantined = Some(self.quarantine()?);
            // Rebuild the log from the salvaged records (all re-encoded
            // with checksums, which also upgrades legacy lines).
            self.rewrite(&scan.records)?;
        }
        Ok(report)
    }

    /// Move the current log into the quarantine directory under a fresh
    /// numbered name; returns the destination.
    fn quarantine(&self) -> Result<PathBuf, OrchError> {
        fs::create_dir_all(&self.qdir)
            .map_err(|e| OrchError(format!("create {}: {e}", self.qdir.display())))?;
        let stem = self
            .path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "log".to_string());
        let mut n = 0;
        let dest = loop {
            let candidate = self.qdir.join(format!("{stem}.{n}.jsonl"));
            if !candidate.exists() {
                break candidate;
            }
            n += 1;
        };
        fs::rename(&self.path, &dest)
            .map_err(|e| OrchError(format!("quarantine {}: {e}", self.path.display())))?;
        Ok(dest)
    }
}

/// One study's directory.
pub struct StudyStore {
    dir: PathBuf,
}

impl StudyStore {
    fn at(dir: PathBuf) -> StudyStore {
        StudyStore { dir }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn log(&self) -> CheckedLog {
        CheckedLog::new(
            self.dir.join("shards.jsonl"),
            self.dir.join("shards.quarantine"),
            "vulfi store fsck --repair",
        )
    }

    pub fn exists(&self) -> bool {
        self.manifest_path().is_file()
    }

    /// Atomically replace the manifest (write temp file, then rename).
    pub fn write_manifest(&self, m: &Manifest) -> Result<(), OrchError> {
        fs::create_dir_all(&self.dir)
            .map_err(|e| OrchError(format!("create {}: {e}", self.dir.display())))?;
        let text = serde_json::to_string_pretty(m)
            .map_err(|e| OrchError(format!("encode manifest: {e}")))?;
        let tmp = self.dir.join("manifest.json.tmp");
        fs::write(&tmp, text.as_bytes())
            .map_err(|e| OrchError(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, self.manifest_path())
            .map_err(|e| OrchError(format!("rename manifest: {e}")))?;
        Ok(())
    }

    pub fn read_manifest(&self) -> Result<Manifest, OrchError> {
        let path = self.manifest_path();
        let text = fs::read_to_string(&path)
            .map_err(|e| OrchError(format!("read {}: {e}", path.display())))?;
        serde_json::from_str(&text).map_err(|e| OrchError(format!("parse manifest: {e}")))
    }

    /// Append one shard record as a single checksummed JSONL line (see
    /// [`CheckedLog::append`] for the crash-safety contract).
    pub fn append_shard(&self, rec: &ShardRecord) -> Result<(), OrchError> {
        self.log().append(rec)
    }

    /// All fully-written shard records, in canonical `(campaign, start,
    /// end)` order — never append order, which follows thread scheduling
    /// when shards run in parallel. Duplicates (a shard re-run after a
    /// lost lease) stay adjacent, in append order.
    ///
    /// A torn **trailing** line (from a killed run) is skipped, not an
    /// error. Corruption anywhere earlier is an error: silently dropping
    /// it would change merged results without a trace. Run
    /// `vulfi store fsck` to quarantine and recover.
    pub fn shards(&self) -> Result<Vec<ShardRecord>, OrchError> {
        let mut shards: Vec<ShardRecord> = self.log().records()?;
        shards.sort_by_key(|s| (s.campaign, s.start, s.end));
        Ok(shards)
    }

    /// Heal a torn trailing line left by a killed writer; called by the
    /// runner on every resume. Returns whether a trim happened.
    pub fn trim_torn_tail(&self) -> Result<bool, OrchError> {
        self.log().trim_torn_tail::<ShardRecord>()
    }

    /// Check this study's shard log; with `repair`, heal it.
    ///
    /// - Clean log (possibly empty/missing): nothing to do.
    /// - Torn trailing line only: recoverable — a resumed run simply
    ///   re-executes the unfinished shard. With `repair` the tail is
    ///   trimmed (via the same quarantine path, so no byte is destroyed).
    /// - Corrupt earlier lines: the log is unsafe to merge. With
    ///   `repair`, the damaged file moves to `shards.quarantine/`, every
    ///   checksum-valid record is salvaged into a fresh `shards.jsonl`,
    ///   and the manifest's `complete` flag is cleared so the scheduler
    ///   re-runs the lost jobs.
    pub fn fsck(&self, repair: bool) -> Result<StudyFsck, OrchError> {
        let key = StudyKey(
            self.dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
        );
        let report = self.log().fsck::<ShardRecord>(key, repair)?;
        if repair && report.dirty() && self.exists() {
            // Records may have been lost: force the scheduler to re-plan.
            let mut manifest = self.read_manifest()?;
            if manifest.complete {
                manifest.complete = false;
                self.write_manifest(&manifest)?;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_retry_survives_transient_errors() {
        let mut attempts = 0;
        let result: io::Result<u32> = with_io_retry(|| {
            attempts += 1;
            if attempts < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(attempts, 3);
    }

    #[test]
    fn io_retry_gives_up_on_persistent_and_hard_errors() {
        let mut attempts = 0;
        let result: io::Result<()> = with_io_retry(|| {
            attempts += 1;
            Err(io::Error::new(io::ErrorKind::WouldBlock, "always busy"))
        });
        assert!(result.is_err());
        assert_eq!(attempts, 6, "initial try + 5 retries");

        let mut attempts = 0;
        let result: io::Result<()> = with_io_retry(|| {
            attempts += 1;
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "nope"))
        });
        assert!(result.is_err());
        assert_eq!(attempts, 1, "hard errors must not be retried");
    }

    #[test]
    fn shard_lines_roundtrip_and_reject_flips() {
        let rec = ShardRecord {
            campaign: 2,
            start: 5,
            end: 9,
            experiments: Vec::new(),
            wall_ns: 123,
        };
        let line = encode_record_line(&rec).unwrap();
        assert!(line.contains("\tcrc32="));
        let back: ShardRecord = parse_record_line(&line).unwrap();
        assert_eq!(back.campaign, 2);
        assert_eq!((back.start, back.end), (5, 9));

        // Flip one byte of the JSON body: the checksum must catch it.
        let mut bytes = line.clone().into_bytes();
        bytes[10] ^= 0x01;
        let tampered = String::from_utf8(bytes).unwrap();
        let err = parse_record_line::<ShardRecord>(&tampered).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn legacy_lines_without_checksum_still_parse() {
        let rec = ShardRecord {
            campaign: 0,
            start: 0,
            end: 1,
            experiments: Vec::new(),
            wall_ns: 0,
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: ShardRecord = parse_record_line(&json).unwrap();
        assert_eq!(back.end, 1);
    }
}
