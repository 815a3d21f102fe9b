//! The experiment checkpoint journal: durable, verifiable sweep progress.
//!
//! A long `repro` campaign dies with the process today unless every
//! completed sweep point survives it. The journal is an append-only manifest
//! in the run's state directory: one checksummed line per completed
//! point carrying the point's label, seed, a digest of its serialized
//! [`SimStats`], and the full stats record itself — enough for a resumed run
//! to *skip the simulation and still render byte-identical output*. Records
//! are fsynced as they are appended (and the journal's directory entry is
//! fsynced at creation via [`crate::persist::fsync_dir`]), so a point is
//! durable the instant [`CheckpointJournal::append`] returns.
//!
//! Replay trusts nothing: the header must carry the expected config
//! fingerprint (a resumed run with a different scale factor, seed, or
//! processor count silently measuring the wrong thing would be worse than
//! recomputing), every line must match its own FNV-1a checksum, and the
//! stats digest must match the parsed record. A torn tail — the half-written
//! line a crash inside an append leaves behind — simply ends the replay at
//! the last valid record. The journal is the only resume state: block files
//! live for one run, and a resumed run records every set it needs afresh.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

use dss_faultkit::crash::crash_point;
use dss_memsim::SimStats;
use dss_query::DbConfig;

use crate::persist::fsync_dir;

/// Journal format magic, bumped on any incompatible change.
const JOURNAL_MAGIC: &str = "dss-ckpt/v1";

/// FNV-1a 64-bit over `bytes` (offset basis / prime shared with the trace
/// codec — a line checksum, not a distributed hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints the configuration a journal's results are valid for: the
/// database parameters and the processor count, plus the journal format
/// version and the block-file format (a term kept so that journals written
/// by earlier builds keep their fingerprint). Resuming under a different
/// fingerprint discards the journal: its results answer a different
/// experiment.
pub fn config_fingerprint(config: &DbConfig, nprocs: usize) -> u64 {
    let mut h = fnv1a(JOURNAL_MAGIC.as_bytes()) ^ fnv1a(dss_trace::BLOCK_MAGIC).rotate_left(32);
    for word in [
        config.scale.to_bits(),
        config.seed,
        config.nbuffers as u64,
        config.indexes.len() as u64,
        nprocs as u64,
    ] {
        h ^= fnv1a(&word.to_le_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for (table, column) in &config.indexes {
        h ^= fnv1a(table.as_bytes()) ^ fnv1a(column.as_bytes()).rotate_left(17);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only manifest of completed sweep points (see the module docs).
///
/// One journal serves a whole `repro` run: sweep labels are globally unique
/// (`fig8/Q6/l2_line=64`, `fig12/Q6v3/cold`, …), so completed points are
/// keyed by `(label, seed)` across experiments.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    fingerprint: u64,
    file: File,
    completed: HashMap<(String, u64), SimStats>,
    replayed: usize,
    fresh_reason: Option<String>,
}

impl CheckpointJournal {
    /// Creates a fresh journal at `path`, truncating anything there, writing
    /// the fingerprint header, and fsyncing both the file and its directory
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates file creation, write, and fsync errors.
    pub fn create(path: &Path, fingerprint: u64) -> io::Result<Self> {
        let mut file = File::create(path)?;
        let head = format!("{JOURNAL_MAGIC} fp={fingerprint:016x}");
        writeln!(file, "{head} crc={:016x}", fnv1a(head.as_bytes()))?;
        file.sync_data()?;
        fsync_dir(path.parent().filter(|p| !p.as_os_str().is_empty()))?;
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            fingerprint,
            file,
            completed: HashMap::new(),
            replayed: 0,
            fresh_reason: None,
        })
    }

    /// Opens the journal at `path` for resumption: replays every valid
    /// record, truncates the file to its valid prefix (discarding the torn
    /// tail a crashed append leaves behind — a later append must not glue
    /// onto the fragment), then keeps writing from there. A missing journal,
    /// an unreadable header, or a fingerprint mismatch is not an error — the
    /// journal is recreated fresh and [`CheckpointJournal::fresh_reason`]
    /// says why.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file simply not existing.
    pub fn resume(path: &Path, fingerprint: u64) -> io::Result<Self> {
        let bytes = match File::open(path) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                bytes
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let mut j = CheckpointJournal::create(path, fingerprint)?;
                j.fresh_reason = Some("no journal to resume".to_string());
                return Ok(j);
            }
            Err(e) => return Err(e),
        };

        // A line only counts if it is newline-terminated, valid UTF-8, and
        // parses; `pos` tracks the byte length of the valid prefix.
        let mut pos = 0usize;
        let header = next_line(&bytes, &mut pos).and_then(parse_header);
        match header {
            Some(fp) if fp == fingerprint => {}
            Some(fp) => {
                let mut j = CheckpointJournal::create(path, fingerprint)?;
                j.fresh_reason = Some(format!(
                    "config fingerprint mismatch (journal {fp:016x}, run {fingerprint:016x})"
                ));
                return Ok(j);
            }
            None => {
                let mut j = CheckpointJournal::create(path, fingerprint)?;
                j.fresh_reason = Some("journal header unreadable".to_string());
                return Ok(j);
            }
        }

        let mut completed = HashMap::new();
        let mut cursor = pos;
        while let Some((label, seed, stats)) = next_line(&bytes, &mut cursor).and_then(parse_record)
        {
            completed.insert((label, seed), stats);
            // The first damaged line ends the valid prefix: anything after
            // it could be the torn tail of a crashed append.
            pos = cursor;
        }
        let replayed = completed.len();

        let mut file = OpenOptions::new().write(true).open(path)?;
        if pos < bytes.len() {
            file.set_len(pos as u64)?;
            file.sync_data()?;
        }
        file.seek(io::SeekFrom::End(0))?;
        Ok(CheckpointJournal {
            path: path.to_path_buf(),
            fingerprint,
            file,
            completed,
            replayed,
            fresh_reason: None,
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fingerprint this journal's records are valid for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of records replayed from disk when this journal was resumed
    /// (zero for a fresh journal).
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Why [`CheckpointJournal::resume`] had to start fresh, if it did: the
    /// old journal answers a different experiment, or there is none.
    pub fn fresh_reason(&self) -> Option<&str> {
        self.fresh_reason.as_deref()
    }

    /// Number of completed points known (replayed plus appended).
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no completed points are known.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// The journaled stats for `(label, seed)`, if that point completed.
    pub fn lookup(&self, label: &str, seed: u64) -> Option<&SimStats> {
        self.completed.get(&(label.to_string(), seed))
    }

    /// Appends one completed point and fsyncs it: when this returns, the
    /// point is durable and a resumed run will skip it.
    ///
    /// # Errors
    ///
    /// Rejects labels containing whitespace (they would corrupt the
    /// line-oriented format) with [`io::ErrorKind::InvalidInput`], and
    /// propagates write/fsync errors.
    pub fn append(&mut self, label: &str, seed: u64, stats: &SimStats) -> io::Result<()> {
        if label.is_empty() || label.contains(char::is_whitespace) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal label must be non-empty and whitespace-free: {label:?}"),
            ));
        }
        let record = stats.to_record();
        let body = format!(
            "pt {label} {seed} {:016x} {record}",
            fnv1a(record.as_bytes())
        );
        let line = format!("{body} crc={:016x}\n", fnv1a(body.as_bytes()));
        // Two writes with a crash site between them: the campaign proves a
        // torn record is discarded by the resume scan, not replayed.
        let (head, tail) = line.as_bytes().split_at(line.len() / 2);
        self.file.write_all(head)?;
        crash_point("crash.manifest.torn-append");
        self.file.write_all(tail)?;
        self.file.sync_data()?;
        crash_point("crash.manifest.post-append");
        self.completed
            .insert((label.to_string(), seed), stats.clone());
        Ok(())
    }
}

/// The next newline-terminated UTF-8 line starting at `*pos`, advancing
/// `*pos` past it. `None` for an unterminated or non-UTF-8 tail.
fn next_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let rest = bytes.get(*pos..)?;
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..nl]).ok()?;
    *pos += nl + 1;
    Some(line)
}

/// Parses the journal header line, returning the fingerprint.
fn parse_header(line: &str) -> Option<u64> {
    let (body, crc) = line.rsplit_once(" crc=")?;
    if u64::from_str_radix(crc, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }
    let fp = body.strip_prefix(JOURNAL_MAGIC)?.strip_prefix(" fp=")?;
    u64::from_str_radix(fp, 16).ok()
}

/// Parses one `pt` record line, validating the line checksum and the stats
/// digest. `None` for anything damaged.
fn parse_record(line: &str) -> Option<(String, u64, SimStats)> {
    let (body, crc) = line.rsplit_once(" crc=")?;
    if u64::from_str_radix(crc, 16).ok()? != fnv1a(body.as_bytes()) {
        return None;
    }
    let mut fields = body.split(' ');
    if fields.next()? != "pt" {
        return None;
    }
    let label = fields.next()?;
    let seed = fields.next()?.parse().ok()?;
    let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
    let record = fields.next()?;
    if fields.next().is_some() || fnv1a(record.as_bytes()) != digest {
        return None;
    }
    Some((label.to_string(), seed, SimStats::from_record(record)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_memsim::ProcStats;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dss-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("manifest.ckpt")
    }

    #[allow(
        clippy::field_reassign_with_default,
        reason = "`ProcStats` keeps its breakdown fields private, so the fixture mutates a default"
    )]
    fn stats(cycles: u64) -> SimStats {
        let mut s = SimStats::default();
        let mut p = ProcStats::default();
        p.cycles = cycles;
        p.busy = cycles / 2;
        s.procs.push(p);
        s.prefetches_issued = 3;
        s
    }

    #[test]
    fn roundtrip_append_and_resume() {
        let path = temp_path("roundtrip");
        let mut j = CheckpointJournal::create(&path, 0xfeed).unwrap();
        assert!(j.is_empty());
        j.append("fig8/Q6/l2_line=64", 0, &stats(100)).unwrap();
        j.append("fig8/Q6/l2_line=128", 0, &stats(200)).unwrap();
        j.append("fig12/Q6v3/cold", 7, &stats(300)).unwrap();
        drop(j);

        let j = CheckpointJournal::resume(&path, 0xfeed).unwrap();
        assert_eq!(j.replayed(), 3);
        assert_eq!(j.len(), 3);
        assert_eq!(j.fresh_reason(), None);
        assert_eq!(j.lookup("fig8/Q6/l2_line=64", 0), Some(&stats(100)));
        assert_eq!(j.lookup("fig12/Q6v3/cold", 7), Some(&stats(300)));
        assert_eq!(j.lookup("fig12/Q6v3/cold", 8), None);
        assert_eq!(j.lookup("fig8/Q3/l2_line=64", 0), None);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_overwritten() {
        let path = temp_path("torn");
        let mut j = CheckpointJournal::create(&path, 1).unwrap();
        j.append("a/b", 0, &stats(1)).unwrap();
        j.append("c/d", 0, &stats(2)).unwrap();
        drop(j);
        // Tear the last record mid-line, as a crash inside append would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();

        let mut j = CheckpointJournal::resume(&path, 1).unwrap();
        assert_eq!(j.replayed(), 1, "torn tail record dropped");
        assert!(j.lookup("a/b", 0).is_some());
        assert!(j.lookup("c/d", 0).is_none());
        // Appending after a torn-tail resume must yield a journal whose
        // *valid prefix* includes the new record on the next resume.
        j.append("e/f", 0, &stats(3)).unwrap();
        drop(j);
        let j = CheckpointJournal::resume(&path, 1).unwrap();
        assert!(j.lookup("a/b", 0).is_some());
        assert!(j.lookup("e/f", 0).is_some(), "record after torn tail");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let path = temp_path("fp");
        let mut j = CheckpointJournal::create(&path, 10).unwrap();
        j.append("a/b", 0, &stats(1)).unwrap();
        drop(j);
        let j = CheckpointJournal::resume(&path, 11).unwrap();
        assert_eq!(j.replayed(), 0);
        assert!(j.fresh_reason().unwrap().contains("fingerprint mismatch"));
        assert!(j.lookup("a/b", 0).is_none());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_and_garbage_journals_start_fresh() {
        let path = temp_path("garbage");
        let j = CheckpointJournal::resume(&path, 5).unwrap();
        assert_eq!(j.fresh_reason(), Some("no journal to resume"));
        drop(j);
        std::fs::write(&path, b"not a journal\nat all\n").unwrap();
        let j = CheckpointJournal::resume(&path, 5).unwrap();
        assert_eq!(j.fresh_reason(), Some("journal header unreadable"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_record_ends_the_valid_prefix() {
        let path = temp_path("corrupt");
        let mut j = CheckpointJournal::create(&path, 2).unwrap();
        j.append("a/b", 0, &stats(1)).unwrap();
        j.append("c/d", 0, &stats(2)).unwrap();
        j.append("e/f", 0, &stats(3)).unwrap();
        drop(j);
        // Flip one digit inside the second record's stats: its digest and
        // line checksum both break, and replay must stop there — records
        // past a damaged line are not trusted.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let tampered = lines[2].replace(char::is_numeric, "9");
        let rewritten = format!("{}\n{}\n{}\n{}\n", lines[0], lines[1], tampered, lines[3]);
        std::fs::write(&path, rewritten).unwrap();
        let j = CheckpointJournal::resume(&path, 2).unwrap();
        assert_eq!(j.replayed(), 1);
        assert!(j.lookup("a/b", 0).is_some());
        assert!(j.lookup("e/f", 0).is_none(), "records past damage dropped");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn whitespace_labels_are_rejected() {
        let path = temp_path("label");
        let mut j = CheckpointJournal::create(&path, 3).unwrap();
        let err = j.append("bad label", 0, &stats(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(j.append("", 0, &stats(1)).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let base = DbConfig::default();
        let a = config_fingerprint(&base, 4);
        assert_eq!(a, config_fingerprint(&DbConfig::default(), 4));
        assert_ne!(a, config_fingerprint(&base, 8));
        assert_ne!(
            a,
            config_fingerprint(
                &DbConfig {
                    scale: base.scale * 10.0,
                    ..DbConfig::default()
                },
                4
            )
        );
        assert_ne!(
            a,
            config_fingerprint(
                &DbConfig {
                    seed: base.seed + 1,
                    ..DbConfig::default()
                },
                4
            )
        );
    }
}
