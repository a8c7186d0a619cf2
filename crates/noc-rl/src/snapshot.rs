//! Versioned, checksummed persistence for trained policies.
//!
//! A [`PolicySnapshot`] captures the Q-tables of a whole controller bank
//! (one table per router) in **snapshot format v1**: a line-oriented
//! text body — a bank header, then each agent's table in the sparse
//! [`QTable::save`] layout — terminated by a CRC-32 trailer over every
//! preceding byte. The checksum turns the two failure modes of
//! checkpoint/resume (truncated file from a killed run, bit rot on disk)
//! into clean [`SnapshotError::Corrupt`] errors at the trailer line
//! instead of silently resuming from a corrupt policy.
//!
//! ```text
//! rlnoc-policy v1 agents=<n> states=<s>
//! agent 0
//! qtable <s> <updates>
//! <state> <q0> <q1> <q2> <q3> <v0> <v1> <v2> <v3>
//! ...
//! agent 1
//! ...
//! end
//! crc32 <8 hex digits>
//! ```
//!
//! **Format v2** extends the bank header with a `fault_bins=<k>` field
//! recording the fault-degree bin count of the state space the bank was
//! trained against (see `StateSpace::with_fault_bins`). A fault-blind
//! bank (`fault_bins == 1`) still writes byte-identical v1, so every
//! pre-hard-fault snapshot on disk remains valid and every fault-blind
//! policy written by this build loads under older readers.
//!
//! The format is the train-once/eval-many split the paper implies: an
//! expensive pre-training phase persists its policy once, and any number
//! of deployed (inference-only, learning-frozen) runs load it back.
//!
//! # Example
//!
//! ```
//! use noc_rl::qtable::QTable;
//! use noc_rl::snapshot::PolicySnapshot;
//!
//! let mut q = QTable::new(16);
//! q.update(3, 1, 1.0, 4, 0.1, 0.5);
//! let snap = PolicySnapshot::new(vec![q]);
//! let mut buf = Vec::new();
//! snap.write(&mut buf).unwrap();
//! let restored = PolicySnapshot::read(buf.as_slice()).unwrap();
//! assert_eq!(restored, snap);
//! ```

use crate::qtable::{QTable, MAX_STATES};
use noc_coding::textfmt::{self, TextError, Trailer};
use std::io::{self, BufRead, Write};
use std::path::Path;

/// The newest snapshot format version this build writes and reads.
/// Fault-blind banks are still written as v1 (see the module docs).
pub const FORMAT_VERSION: u32 = 2;

/// The largest `agents=` a snapshot may declare: one table per router,
/// and `noc-topo` caps a network at 65 536 nodes (`u16` node ids).
pub const MAX_AGENTS: usize = 1 << 16;

/// A persisted bank of per-router Q-tables.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    tables: Vec<QTable>,
    /// Fault-degree bin count of the originating state space; `1` for
    /// fault-blind banks (and for every v1 snapshot on disk).
    fault_bins: usize,
}

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The header names a format version this build cannot read.
    UnsupportedVersion(u32),
    /// Structurally malformed input.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            SnapshotError::Corrupt { line, message } => {
                write!(f, "corrupt snapshot at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<TextError> for SnapshotError {
    fn from(TextError { line, message }: TextError) -> Self {
        SnapshotError::Corrupt { line, message }
    }
}

impl PolicySnapshot {
    /// Wraps the per-router tables of one bank.
    ///
    /// # Panics
    ///
    /// Panics if `tables` is empty or the tables disagree on state count
    /// (a bank shares one state space).
    pub fn new(tables: Vec<QTable>) -> Self {
        assert!(!tables.is_empty(), "snapshot needs at least one table");
        let states = tables[0].num_states();
        assert!(
            tables.iter().all(|t| t.num_states() == states),
            "all tables in a snapshot must share one state space"
        );
        Self {
            tables,
            fault_bins: 1,
        }
    }

    /// Records the fault-degree bin count of the state space this bank
    /// was trained against. `1` (the default) keeps the snapshot in the
    /// v1 format; anything larger writes v2.
    ///
    /// # Panics
    ///
    /// Panics if `fault_bins == 0`.
    pub fn with_fault_bins(mut self, fault_bins: usize) -> Self {
        assert!(fault_bins > 0, "need at least one fault bin");
        self.fault_bins = fault_bins;
        self
    }

    /// Fault-degree bin count of the originating state space (`1` for
    /// fault-blind banks).
    pub fn fault_bins(&self) -> usize {
        self.fault_bins
    }

    /// Number of per-router tables.
    pub fn num_agents(&self) -> usize {
        self.tables.len()
    }

    /// States per table.
    pub fn num_states(&self) -> usize {
        self.tables[0].num_states()
    }

    /// The tables, in router order.
    pub fn tables(&self) -> &[QTable] {
        &self.tables
    }

    /// Consumes the snapshot, yielding the tables in router order.
    pub fn into_tables(self) -> Vec<QTable> {
        self.tables
    }

    /// Serializes the snapshot (body + CRC-32 trailer) into `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let mut body = Vec::new();
        if self.fault_bins == 1 {
            // Fault-blind banks stay byte-identical to pre-v2 output.
            writeln!(
                body,
                "rlnoc-policy v1 agents={} states={}",
                self.num_agents(),
                self.num_states()
            )?;
        } else {
            writeln!(
                body,
                "rlnoc-policy v2 agents={} states={} fault_bins={}",
                self.num_agents(),
                self.num_states(),
                self.fault_bins
            )?;
        }
        for (i, table) in self.tables.iter().enumerate() {
            writeln!(body, "agent {i}")?;
            table.save(&mut body)?;
        }
        writeln!(body, "end")?;
        let mut text = String::from_utf8(body).expect("snapshot text is ASCII");
        textfmt::seal(&mut text, Trailer::Crc32);
        writer.write_all(text.as_bytes())
    }

    /// Parses a snapshot previously produced by [`write`](Self::write),
    /// verifying the trailer checksum before trusting any content.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on I/O failure, checksum mismatch,
    /// unsupported version, or malformed structure.
    pub fn read<R: BufRead>(mut reader: R) -> Result<Self, SnapshotError> {
        let mut raw = String::new();
        reader.read_to_string(&mut raw)?;
        let corrupt = |line: usize, message: String| SnapshotError::Corrupt { line, message };
        let body = textfmt::unseal(&raw, Trailer::Crc32)?;
        let mut lines = body.lines().enumerate().peekable();
        // Where a missing section or `end` would have been.
        let past_end = || body.lines().count() + 1;
        let (_, header) = lines
            .next()
            .ok_or_else(|| corrupt(1, "empty snapshot".into()))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("rlnoc-policy") {
            return Err(corrupt(1, "missing rlnoc-policy header".into()));
        }
        let version: u32 = parts
            .next()
            .and_then(|v| v.strip_prefix('v'))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt(1, "bad version field".into()))?;
        if version == 0 || version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let field = |parts: &mut std::str::SplitWhitespace<'_>, name: &str| {
            parts
                .next()
                .and_then(|v| v.strip_prefix(name))
                .and_then(|v| v.strip_prefix('='))
                .and_then(|v| v.parse::<usize>().ok())
        };
        let num_agents =
            field(&mut parts, "agents").ok_or_else(|| corrupt(1, "bad agents field".into()))?;
        let num_states =
            field(&mut parts, "states").ok_or_else(|| corrupt(1, "bad states field".into()))?;
        // v1 predates the fault-degree dimension; v2 records it.
        let fault_bins = if version >= 2 {
            field(&mut parts, "fault_bins")
                .ok_or_else(|| corrupt(1, "bad fault_bins field".into()))?
        } else {
            1
        };
        if num_agents == 0 || num_states == 0 || fault_bins == 0 {
            return Err(corrupt(1, "empty bank".into()));
        }
        // Both counts size allocations below: bound them first.
        if num_agents > MAX_AGENTS {
            return Err(corrupt(
                1,
                format!("agents={num_agents} above the {MAX_AGENTS}-agent cap"),
            ));
        }
        if num_states > MAX_STATES {
            return Err(corrupt(
                1,
                format!("states={num_states} above the {MAX_STATES}-state cap"),
            ));
        }
        if version == 2 && fault_bins == 1 {
            return Err(corrupt(1, "fault-blind bank must use format v1".into()));
        }

        // Each agent section is buffered and handed to QTable::load;
        // `tables` grows with the sections present, not with `agents=`.
        let mut tables = Vec::new();
        for expect in 0..num_agents {
            let (n, line) = lines.next().ok_or_else(|| {
                corrupt(past_end(), format!("missing section for agent {expect}"))
            })?;
            if line.trim() != format!("agent {expect}") {
                return Err(corrupt(n + 1, format!("expected `agent {expect}`")));
            }
            let mut section = String::new();
            while let Some((_, peeked)) = lines.peek() {
                let p = peeked.trim();
                if p.starts_with("agent ") || p == "end" {
                    break;
                }
                let (_, line) = lines.next().expect("peeked");
                section.push_str(line);
                section.push('\n');
            }
            // The section starts on the line after its `agent` line with
            // `qtable <s> <updates>`, tokenized as `QTable::load` does;
            // `<s>` must match the bank before a table is sized from it.
            let mut head = section
                .lines()
                .next()
                .unwrap_or_default()
                .split_whitespace();
            if let (Some("qtable"), Some(Ok(states))) =
                (head.next(), head.next().map(str::parse::<usize>))
            {
                if states != num_states {
                    return Err(corrupt(
                        n + 2,
                        format!(
                            "agent {expect}: qtable {states}, bank header says states={num_states}"
                        ),
                    ));
                }
            }
            let table = QTable::load(section.as_bytes())
                .map_err(|e| corrupt(n + 1 + e.line, format!("agent {expect}: {}", e.message)))?;
            tables.push(table);
        }
        match lines.next() {
            Some((_, line)) if line.trim() == "end" => {}
            Some((n, line)) => {
                return Err(corrupt(n + 1, format!("expected `end`, got `{line}`")));
            }
            None => return Err(corrupt(past_end(), "missing `end` marker".into())),
        }
        Ok(Self::new(tables).with_fault_bins(fault_bins))
    }

    /// Writes the snapshot to `path` atomically: the bytes land in a
    /// sibling temporary file which is renamed into place, so a killed
    /// process never leaves a half-written snapshot under the final name.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = io::BufWriter::new(std::fs::File::create(&tmp)?);
            self.write(&mut file)?;
            file.flush()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] as [`read`](Self::read) does.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let file = std::fs::File::open(path)?;
        Self::read(io::BufReader::new(file))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_bank(agents: usize) -> PolicySnapshot {
        let tables = (0..agents)
            .map(|i| {
                let mut q = QTable::new(40);
                q.update(i % 40, i % 4, 1.0 + i as f64, (i + 1) % 40, 0.5, 0.5);
                q.update(7, 2, -0.125, 3, 0.25, 0.5);
                q
            })
            .collect();
        PolicySnapshot::new(tables)
    }

    /// `body` with the CRC-32 trailer a writer would append.
    fn with_crc(body: &str) -> Vec<u8> {
        let mut text = body.to_string();
        textfmt::seal(&mut text, Trailer::Crc32);
        text.into_bytes()
    }

    #[test]
    fn round_trip_is_identity() {
        let snap = trained_bank(5);
        let mut buf = Vec::new();
        snap.write(&mut buf).expect("write to vec");
        let restored = PolicySnapshot::read(buf.as_slice()).expect("read own output");
        assert_eq!(restored, snap);
        assert_eq!(restored.num_agents(), 5);
        assert_eq!(restored.num_states(), 40);
    }

    #[test]
    fn single_agent_round_trips() {
        let snap = trained_bank(1);
        let mut buf = Vec::new();
        snap.write(&mut buf).expect("write");
        assert_eq!(PolicySnapshot::read(buf.as_slice()).expect("read"), snap);
    }

    #[test]
    fn bit_flip_is_detected() {
        let snap = trained_bank(3);
        let mut buf = Vec::new();
        snap.write(&mut buf).expect("write");
        // Flip one bit somewhere in the middle of the body.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x04;
        match PolicySnapshot::read(buf.as_slice()) {
            Err(SnapshotError::Corrupt { message, .. }) if message.contains("trailer") => {}
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let snap = trained_bank(3);
        let mut buf = Vec::new();
        snap.write(&mut buf).expect("write");
        buf.truncate(buf.len() * 2 / 3);
        assert!(
            PolicySnapshot::read(buf.as_slice()).is_err(),
            "truncated snapshot must not parse"
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let text = "rlnoc-policy v99 agents=1 states=4\nagent 0\nqtable 4 0\nend\n";
        let buf = with_crc(text);
        match PolicySnapshot::read(buf.as_slice()) {
            Err(SnapshotError::UnsupportedVersion(99)) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn a_bad_table_row_is_corrupt_at_its_own_line() {
        let header =
            "rlnoc-policy v1 agents=2 states=4\nagent 0\nqtable 4 0\nagent 1\nqtable 4 2\n";
        for (rows, line) in [
            ("1 1 0 0 0 1 0 0 0\n1 2 0 0 0 1 0 0 0\n", 7),
            ("2 inf 0 0 0 1 0 0 0\n", 6),
            ("2 0 0 0 NaN 0 0 0 1\n", 6),
        ] {
            let text = with_crc(&format!("{header}{rows}end\n"));
            match PolicySnapshot::read(text.as_slice()) {
                Err(SnapshotError::Corrupt { line: got, message }) => {
                    assert_eq!(got, line, "{message}");
                    assert!(message.starts_with("agent 1: "), "{message}");
                }
                other => panic!("expected a corrupt row, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_counts_are_refused_before_allocating() {
        // Each header carries a valid CRC; each count would otherwise
        // size an allocation of terabytes or more.
        for (text, line, bound) in [
            (
                "rlnoc-policy v1 agents=1000000000000 states=4\nagent 0\nqtable 4 0\nend\n",
                1,
                "above the 65536-agent cap",
            ),
            (
                "rlnoc-policy v1 agents=1 states=18446744073709551615\nagent 0\nqtable 4 0\nend\n",
                1,
                "above the 65536-state cap",
            ),
            (
                "rlnoc-policy v1 agents=1 states=4\nagent 0\nqtable 18446744073709551615 0\nend\n",
                3,
                "bank header says states=4",
            ),
            (
                "rlnoc-policy v1 agents=2 states=4\nagent 0\nqtable 4 0\nagent 1\nqtable 70000 0\nend\n",
                5,
                "agent 1: qtable 70000, bank header says states=4",
            ),
        ] {
            match PolicySnapshot::read(with_crc(text).as_slice()) {
                Err(SnapshotError::Corrupt { line: got, message }) => {
                    assert_eq!(got, line, "{message}");
                    assert!(message.contains(bound), "{message}");
                }
                other => panic!("expected a refused count, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(PolicySnapshot::read(&b""[..]).is_err());
        assert!(PolicySnapshot::read(&b"not a snapshot\n"[..]).is_err());
    }

    #[test]
    fn path_round_trip_is_atomic_and_identical() {
        let snap = trained_bank(4);
        let dir = std::env::temp_dir().join(format!("rlnoc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bank.policy");
        snap.save_to_path(&path).expect("save");
        assert!(
            !path.with_extension("policy.tmp").exists(),
            "temporary file must be renamed away"
        );
        let restored = PolicySnapshot::load_from_path(&path).expect("load");
        assert_eq!(restored, snap);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn empty_snapshot_panics() {
        let _ = PolicySnapshot::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "share one state space")]
    fn mismatched_state_counts_panic() {
        let _ = PolicySnapshot::new(vec![QTable::new(4), QTable::new(8)]);
    }

    #[test]
    fn fault_blind_bank_writes_v1_bytes() {
        let snap = trained_bank(2);
        let mut buf = Vec::new();
        snap.write(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert!(
            text.starts_with("rlnoc-policy v1 agents=2 states=40\n"),
            "fault-blind header regressed: {}",
            text.lines().next().unwrap_or("")
        );
        assert!(!text.contains("fault_bins"));
    }

    #[test]
    fn fault_aware_bank_round_trips_as_v2() {
        let snap = trained_bank(3).with_fault_bins(3);
        let mut buf = Vec::new();
        snap.write(&mut buf).expect("write");
        let text = String::from_utf8(buf.clone()).expect("utf8");
        assert!(
            text.starts_with("rlnoc-policy v2 agents=3 states=40 fault_bins=3\n"),
            "v2 header wrong: {}",
            text.lines().next().unwrap_or("")
        );
        let restored = PolicySnapshot::read(buf.as_slice()).expect("read v2");
        assert_eq!(restored, snap);
        assert_eq!(restored.fault_bins(), 3);
    }

    #[test]
    fn v1_snapshot_loads_as_fault_blind() {
        // A pre-hard-fault snapshot written by an older build.
        let text = "rlnoc-policy v1 agents=1 states=4\nagent 0\nqtable 4 0\nend\n";
        let buf = with_crc(text);
        let snap = PolicySnapshot::read(buf.as_slice()).expect("v1 must load");
        assert_eq!(snap.fault_bins(), 1);
        assert_eq!(snap.num_agents(), 1);
    }

    #[test]
    fn v2_header_without_fault_bins_is_corrupt() {
        let text = "rlnoc-policy v2 agents=1 states=4\nagent 0\nqtable 4 0\nend\n";
        let buf = with_crc(text);
        match PolicySnapshot::read(buf.as_slice()) {
            Err(SnapshotError::Corrupt { line: 1, .. }) => {}
            other => panic!("expected corrupt header, got {other:?}"),
        }
    }
}
