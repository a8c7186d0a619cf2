//! Mid-flight campaign checkpointing: one append-only journal per
//! directory.
//!
//! Every record a checkpoint directory holds goes into a single file,
//! `<dir>/journal`, written only by appending. There are four record
//! kinds:
//!
//! * `campaign` — a scope, a [`Campaign::fingerprint`] and the task
//!   count: which campaign configuration the records under that
//!   fingerprint belong to. Written once, when the campaign is first
//!   opened.
//! * `submitted` — a tenant, the campaign id it claims, a priority and
//!   the submitted spec text. Only `rlnoc-serve` writes these; they are
//!   what it recovers after a restart.
//! * `cancelled` — a tenant and the id of a campaign it cancelled. Only
//!   `rlnoc-serve` writes these; a recovered campaign with one stays
//!   cancelled and runs nothing.
//! * `task` — a scope, a fingerprint, a task index and the
//!   [`render_report`] body of that task's finished report.
//!
//! The scope keeps campaigns apart that share a fingerprint: the runner
//! uses the empty scope, the service one scope per tenant, so two
//! tenants submitting one spec keep separate task records.
//!
//! Each record is one frame in the workspace's line-oriented text family
//! (`QTable::save`, the policy snapshot format, `rlnoc-wire`):
//!
//! ```text
//! rlnoc-journal v1 task 655
//! scope
//! fingerprint 00000000000000ab
//! task 3
//! scheme RL
//! ... one `key value` line per report field ...
//! end
//! crc32 1a2b3c4d
//! ```
//!
//! The magic line names the kind and the payload length in bytes; the
//! CRC-32 trailer (the in-tree `noc-coding` implementation) covers the
//! magic line and the payload. Floats use Rust's shortest round-trip
//! formatting, so a reloaded report is bit-identical to the stored one.
//!
//! **Writing.** The journal is opened once with `O_APPEND` and the
//! descriptor is held for the journal's lifetime; every record is
//! rendered in memory and written with exactly one `write(2)`. Within a
//! process all handles on one directory share one [`Journal`], so its
//! in-memory index sees every append. There is no `fsync`: a record
//! survives `kill -9` as soon as `write(2)` returns, exactly as the
//! per-task files this format replaced did, and surviving power loss is
//! a separate decision.
//!
//! **Reading.** Opening scans the file once and keeps only an index:
//! key → (offset, length). Reports are never kept in memory;
//! [`CheckpointDir::load`] re-reads its record with a positioned read,
//! checks its CRC again and parses it, and keeps the report only if
//! writing it back gives the very payload read.
//!
//! **Damage.** A record that fails its framing, its CRC or that
//! write-back is absent: its task simply re-runs, and a damaged
//! `submitted` record's campaign is not recovered. The scan
//! resynchronises at the next magic line, so damage costs only the
//! record it lands in. Bytes after the last valid
//! record — a record torn by a kill mid-append — are truncated away
//! before the first append, so new records never land behind garbage.
//! No other layout is read: a directory written in an older layout holds
//! no journal, so its tasks re-run.
//!
//! [`Campaign::fingerprint`]: rlnoc_core::campaign::Campaign::fingerprint

use noc_coding::textfmt::{self, Trailer};
use rlnoc_core::experiment::{ErrorControlScheme, ExperimentReport};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// The journal's file name inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "journal";

/// Opens every record's magic line.
const MAGIC: &str = "rlnoc-journal v1";
/// Longest magic line a scan will look for a newline in.
const MAX_HEADER: usize = 64;
/// Largest payload a record may carry (a submitted spec is capped at
/// 8 MiB by the wire protocol).
const MAX_PAYLOAD: usize = 16 << 20;
/// Every record's trailer: `crc32 ` + eight hex digits + newline.
const TRAILER: Trailer = Trailer::Crc32;

/// Why a checkpoint record was rejected or could not be written.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(io::Error),
    /// A record or report body failed its structure checks.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Renders a report as the canonical `key value` line format used by
/// task records (no magic, no checksum).
///
/// This is the stable serialization of an [`ExperimentReport`]: floats
/// use Rust's shortest round-trip formatting, so equal reports render
/// to equal bytes and rendered reports parse back bit-identically via
/// [`parse_report`]. The golden-report regression tests compare this
/// rendering byte-for-byte against committed fixtures.
pub fn render_report(report: &ExperimentReport) -> String {
    let mut s = String::new();
    render_report_into(&mut s, report);
    s
}

fn render_report_into(s: &mut String, report: &ExperimentReport) {
    // Destructured without `..`: a field added to the report does not
    // build until it is rendered here.
    let ExperimentReport {
        scheme,
        workload,
        seed,
        frequency_hz,
        packets_injected,
        packets_delivered,
        flits_delivered,
        avg_latency_cycles,
        p99_latency_cycles,
        execution_cycles,
        drained,
        packet_retransmissions,
        flit_retransmissions,
        retransmitted_packets_equiv,
        hop_nacks,
        ecc_corrections,
        crc_failures,
        control_packets,
        pre_retransmit_hits,
        silent_corruptions,
        dynamic_energy_j,
        static_energy_j,
        control_energy_j,
        mode_histogram,
        mean_temperature_c,
        max_temperature_c,
        hard_fault_events,
        reroute_events,
        packets_lost_hard_fault,
        packets_refused_unreachable,
        unreachable_pairs,
    } = report;
    // One `name value` line per field, keyed by the field's own name.
    macro_rules! fields {
        ($($field:ident),+ $(,)?) => {
            $(writeln!(s, "{} {}", stringify!($field), $field).expect("write to string");)+
        };
    }
    writeln!(s, "scheme {}", scheme.token()).expect("write to string");
    fields!(
        workload,
        seed,
        frequency_hz,
        packets_injected,
        packets_delivered,
        flits_delivered,
        avg_latency_cycles,
        p99_latency_cycles,
        execution_cycles,
        drained,
        packet_retransmissions,
        flit_retransmissions,
        retransmitted_packets_equiv,
        hop_nacks,
        ecc_corrections,
        crc_failures,
        control_packets,
        pre_retransmit_hits,
        silent_corruptions,
        dynamic_energy_j,
        static_energy_j,
        control_energy_j,
    );
    let [m0, m1, m2, m3] = mode_histogram;
    writeln!(s, "mode_histogram {m0} {m1} {m2} {m3}").expect("write to string");
    fields!(mean_temperature_c, max_temperature_c);
    // Hard-fault counters render only when at least one is nonzero, so
    // reports from fault-free campaigns stay byte-identical to the
    // pre-hard-fault fixture format.
    let fault_counters = [
        hard_fault_events,
        reroute_events,
        packets_lost_hard_fault,
        packets_refused_unreachable,
        unreachable_pairs,
    ];
    if fault_counters.iter().any(|&&c| c != 0) {
        fields!(
            hard_fault_events,
            reroute_events,
            packets_lost_hard_fault,
            packets_refused_unreachable,
            unreachable_pairs,
        );
    }
}

/// Reads `key value` lines off the front of a text, keeping the rest.
struct FieldParser<'a> {
    rest: &'a str,
}

impl<'a> FieldParser<'a> {
    fn new(text: &'a str) -> Self {
        Self { rest: text }
    }

    /// The next line, split as [`str::lines`] does.
    fn next_line(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        Some(line.strip_suffix('\r').unwrap_or(line))
    }

    fn next_field(&mut self, key: &str) -> Result<&'a str, CheckpointError> {
        let line = self
            .next_line()
            .ok_or_else(|| CheckpointError::Corrupt(format!("missing field `{key}`")))?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| CheckpointError::Corrupt(format!("expected `{key} ...`, got `{line}`")))
    }

    fn parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, CheckpointError> {
        self.next_field(key)?
            .parse()
            .map_err(|_| CheckpointError::Corrupt(format!("unparsable value for `{key}`")))
    }

    /// A [`textfmt::dec`] field that fits `T`.
    fn dec<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, CheckpointError> {
        let value = textfmt::dec(self.next_field(key)?).and_then(|n| T::try_from(n).ok());
        value.ok_or_else(|| CheckpointError::Corrupt(format!("bad value for `{key}`")))
    }

    fn fingerprint(&mut self) -> Result<u64, CheckpointError> {
        textfmt::hex16(self.next_field("fingerprint")?)
            .ok_or_else(|| CheckpointError::Corrupt("bad fingerprint".into()))
    }
}

/// Parses a [`render_report`] body (terminated by an `end` line) back
/// into a report.
///
/// # Errors
///
/// [`CheckpointError::Corrupt`] on any missing, reordered, or
/// unparsable field.
pub fn parse_report(body: &str) -> Result<ExperimentReport, CheckpointError> {
    let mut p = FieldParser::new(body);
    let scheme_raw = p.next_field("scheme")?;
    let scheme = ErrorControlScheme::from_token(scheme_raw)
        .ok_or_else(|| CheckpointError::Corrupt(format!("unknown scheme `{scheme_raw}`")))?;
    let workload = p.next_field("workload")?.to_string();
    let mut report = ExperimentReport {
        scheme,
        workload,
        seed: p.parse("seed")?,
        frequency_hz: p.parse("frequency_hz")?,
        packets_injected: p.parse("packets_injected")?,
        packets_delivered: p.parse("packets_delivered")?,
        flits_delivered: p.parse("flits_delivered")?,
        avg_latency_cycles: p.parse("avg_latency_cycles")?,
        p99_latency_cycles: p.parse("p99_latency_cycles")?,
        execution_cycles: p.parse("execution_cycles")?,
        drained: p.parse("drained")?,
        packet_retransmissions: p.parse("packet_retransmissions")?,
        flit_retransmissions: p.parse("flit_retransmissions")?,
        retransmitted_packets_equiv: p.parse("retransmitted_packets_equiv")?,
        hop_nacks: p.parse("hop_nacks")?,
        ecc_corrections: p.parse("ecc_corrections")?,
        crc_failures: p.parse("crc_failures")?,
        control_packets: p.parse("control_packets")?,
        pre_retransmit_hits: p.parse("pre_retransmit_hits")?,
        silent_corruptions: p.parse("silent_corruptions")?,
        dynamic_energy_j: p.parse("dynamic_energy_j")?,
        static_energy_j: p.parse("static_energy_j")?,
        control_energy_j: p.parse("control_energy_j")?,
        mode_histogram: {
            let raw = p.next_field("mode_histogram")?;
            let mut hist = [0u64; 4];
            let mut parts = raw.split_whitespace();
            for slot in &mut hist {
                *slot = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| CheckpointError::Corrupt("bad mode_histogram".into()))?;
            }
            if parts.next().is_some() {
                return Err(CheckpointError::Corrupt("bad mode_histogram".into()));
            }
            hist
        },
        mean_temperature_c: p.parse("mean_temperature_c")?,
        max_temperature_c: p.parse("max_temperature_c")?,
        hard_fault_events: 0,
        reroute_events: 0,
        packets_lost_hard_fault: 0,
        packets_refused_unreachable: 0,
        unreachable_pairs: 0,
    };
    match p.next_line() {
        Some("end") => Ok(report),
        Some(line) if line.starts_with("hard_fault_events ") => {
            // The optional hard-fault block: all five counters, in
            // order, present only when the run saw faults.
            report.hard_fault_events =
                line["hard_fault_events ".len()..].parse().map_err(|_| {
                    CheckpointError::Corrupt("unparsable value for `hard_fault_events`".into())
                })?;
            report.reroute_events = p.parse("reroute_events")?;
            report.packets_lost_hard_fault = p.parse("packets_lost_hard_fault")?;
            report.packets_refused_unreachable = p.parse("packets_refused_unreachable")?;
            report.unreachable_pairs = p.parse("unreachable_pairs")?;
            match p.next_line() {
                Some("end") => Ok(report),
                other => Err(CheckpointError::Corrupt(format!(
                    "expected `end`, got {other:?}"
                ))),
            }
        }
        other => Err(CheckpointError::Corrupt(format!(
            "expected `end`, got {other:?}"
        ))),
    }
}

/// The four record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Campaign,
    Submitted,
    Cancelled,
    Task,
}

impl Kind {
    fn token(self) -> &'static str {
        match self {
            Self::Campaign => "campaign",
            Self::Submitted => "submitted",
            Self::Cancelled => "cancelled",
            Self::Task => "task",
        }
    }

    fn from_token(token: &str) -> Option<Self> {
        [Self::Campaign, Self::Submitted, Self::Cancelled, Self::Task]
            .into_iter()
            .find(|kind| kind.token() == token)
    }
}

/// Frames `payload` as one record: magic line, payload, CRC trailer.
fn frame(kind: Kind, payload: &str) -> Vec<u8> {
    let mut record = format!("{MAGIC} {} {}\n", kind.token(), payload.len());
    record.push_str(payload);
    textfmt::seal(&mut record, TRAILER);
    record.into_bytes()
}

/// Parses the record at the start of `buf`: its kind, its payload, and
/// how many bytes it spans. `None` for anything that fails framing or
/// its CRC.
fn unframe(buf: &[u8]) -> Option<(Kind, &str, usize)> {
    let newline = buf.iter().take(MAX_HEADER).position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&buf[..newline]).ok()?;
    let mut tokens = header.strip_prefix(MAGIC)?.strip_prefix(' ')?.split(' ');
    let kind = Kind::from_token(tokens.next()?)?;
    let len = usize::try_from(textfmt::dec(tokens.next()?)?).ok()?;
    if tokens.next().is_some() || len > MAX_PAYLOAD {
        return None;
    }
    let body_end = newline + 1 + len;
    let record_end = body_end + TRAILER.line_len();
    let trailer = buf.get(body_end..record_end)?;
    if !TRAILER.seals(&buf[..body_end], trailer) {
        return None;
    }
    let payload = std::str::from_utf8(&buf[newline + 1..body_end]).ok()?;
    Some((kind, payload, record_end))
}

/// Where a record sits in the journal file.
#[derive(Debug, Clone, Copy)]
struct Extent {
    offset: u64,
    len: u32,
}

/// A `submitted` record: what `rlnoc-serve` needs to re-register a
/// campaign after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Submitting tenant (the scope of the campaign's task records).
    pub tenant: String,
    /// The campaign id the submitter was acknowledged with. A reader
    /// re-derives it from the spec and skips the record on a mismatch.
    pub id: String,
    /// Scheduling priority.
    pub priority: u32,
    /// The submitted spec text, verbatim.
    pub spec_text: String,
}

impl Submission {
    fn parse(payload: &str) -> Result<Self, CheckpointError> {
        let mut p = FieldParser::new(payload);
        Ok(Self {
            tenant: p.next_field("scope")?.to_string(),
            id: p.next_field("id")?.to_string(),
            priority: p.dec("priority")?,
            spec_text: p.rest.to_string(),
        })
    }
}

/// What a journal's records say, minus the reports themselves.
#[derive(Debug, Default)]
struct Index {
    /// Interned scope names; a key's `u32` is a position here.
    scopes: Vec<Arc<str>>,
    /// `(scope, fingerprint)` of every `campaign` record.
    campaigns: HashSet<(u32, u64)>,
    /// `(scope, fingerprint, task index)` → the latest `task` record.
    tasks: HashMap<(u32, u64, u32), Extent>,
    /// Every `submitted` record, in file order.
    submitted: Vec<Extent>,
    /// `(scope, fingerprint)` of every `cancelled` record.
    cancelled: HashSet<(u32, u64)>,
}

impl Index {
    fn scope_id(&mut self, scope: &str) -> u32 {
        if let Some(id) = self.scopes.iter().position(|s| &**s == scope) {
            return id as u32;
        }
        self.scopes.push(Arc::from(scope));
        (self.scopes.len() - 1) as u32
    }

    /// `scope`'s id, without interning a scope no record names.
    fn find_scope(&self, scope: &str) -> Option<u32> {
        self.scopes
            .iter()
            .position(|s| &**s == scope)
            .map(|id| id as u32)
    }

    /// Indexes one valid record; a record whose fields do not parse is
    /// skipped like a damaged one.
    fn insert(&mut self, kind: Kind, payload: &str, extent: Extent) {
        let mut p = FieldParser::new(payload);
        let Ok(scope) = p.next_field("scope") else {
            return;
        };
        match kind {
            Kind::Campaign => {
                if let Ok(fingerprint) = p.fingerprint() {
                    let scope = self.scope_id(scope);
                    self.campaigns.insert((scope, fingerprint));
                }
            }
            Kind::Task => {
                if let (Ok(fingerprint), Ok(index)) = (p.fingerprint(), p.dec::<u32>("task")) {
                    let scope = self.scope_id(scope);
                    self.tasks.insert((scope, fingerprint, index), extent);
                }
            }
            Kind::Submitted => self.submitted.push(extent),
            Kind::Cancelled => {
                let id = p.next_field("id").ok();
                if let Some(fingerprint) = id.and_then(CheckpointDir::parse_namespace) {
                    let scope = self.scope_id(scope);
                    self.cancelled.insert((scope, fingerprint));
                }
            }
        }
    }
}

/// Everything about a journal that changes when it is appended to.
#[derive(Debug)]
struct State {
    /// File length as this process knows it: where the next record lands.
    end: u64,
    /// Set when the opening scan found bytes after the last valid
    /// record; they are cut before the first append.
    torn: bool,
    index: Index,
}

/// One directory's append-only record journal, shared by every
/// [`CheckpointDir`] on that directory in this process.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    /// `(device, inode)` of the file, so a reopen after the directory
    /// was deleted and recreated does not reuse a stale journal.
    identity: (u64, u64),
    state: Mutex<State>,
}

/// Journals open in this process, by canonical directory.
fn open_journals() -> &'static Mutex<HashMap<PathBuf, Weak<Journal>>> {
    static OPEN: OnceLock<Mutex<HashMap<PathBuf, Weak<Journal>>>> = OnceLock::new();
    OPEN.get_or_init(|| Mutex::new(HashMap::new()))
}

impl Journal {
    /// Opens (creating if needed) the journal of `dir`.
    ///
    /// Within one process every call on one directory returns the same
    /// journal for as long as any handle on it is alive; the file is
    /// scanned again only after the last handle is dropped.
    ///
    /// # Errors
    ///
    /// Filesystem failures creating the directory or opening, reading
    /// or inspecting the file.
    pub fn open(dir: &Path) -> Result<Arc<Self>, CheckpointError> {
        fs::create_dir_all(dir)?;
        let dir = fs::canonicalize(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut open = open_journals().lock().expect("journal registry lock");
        if let Some(journal) = open.get(&dir).and_then(Weak::upgrade) {
            let same_file =
                fs::metadata(&path).is_ok_and(|m| (m.dev(), m.ino()) == journal.identity);
            if same_file {
                return Ok(journal);
            }
        }
        let journal = Arc::new(Self::scan(dir.clone(), &path)?);
        open.retain(|_, j| j.strong_count() > 0);
        open.insert(dir, Arc::downgrade(&journal));
        Ok(journal)
    }

    /// Opens the file at `path` and scans it into an index.
    fn scan(dir: PathBuf, path: &Path) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let meta = file.metadata()?;
        let mut bytes = vec![0u8; meta.len() as usize];
        file.read_exact_at(&mut bytes, 0)?;

        let mut index = Index::default();
        let (mut pos, mut valid_end) = (0usize, 0usize);
        while pos < bytes.len() {
            if let Some((kind, payload, len)) = unframe(&bytes[pos..]) {
                let extent = Extent {
                    offset: pos as u64,
                    len: len as u32,
                };
                index.insert(kind, payload, extent);
                pos += len;
                valid_end = pos;
                continue;
            }
            // Damaged: resynchronise at the next magic string.
            let needle = MAGIC.as_bytes();
            match bytes[pos + 1..]
                .windows(needle.len())
                .position(|w| w == needle)
            {
                Some(skip) => pos += 1 + skip,
                None => break,
            }
        }
        Ok(Self {
            dir,
            identity: (meta.dev(), meta.ino()),
            state: Mutex::new(State {
                end: valid_end as u64,
                torn: valid_end < bytes.len(),
                index,
            }),
            file,
        })
    }

    /// The directory the journal lives in.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Appends one record with a single `write(2)` and hands `index`
    /// where it landed. `index` runs under the journal lock, after the
    /// write, so no reader finds a key for a record not yet written.
    fn append(
        &self,
        kind: Kind,
        payload: &str,
        index: impl FnOnce(&mut Index, Extent),
    ) -> Result<(), CheckpointError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(CheckpointError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes exceeds the {MAX_PAYLOAD}-byte cap",
                    payload.len()
                ),
            )));
        }
        let record = frame(kind, payload);
        let mut state = self.state.lock().expect("journal lock");
        if state.torn {
            self.file.set_len(state.end)?;
            state.torn = false;
        }
        let written = (&self.file).write(&record);
        if !matches!(written, Ok(n) if n == record.len()) {
            // Leave no partial record behind for the next append to
            // land after.
            let _ = self.file.set_len(state.end);
            return Err(match written {
                Err(e) => e.into(),
                Ok(n) => CheckpointError::Io(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!("short journal write: {n} of {} bytes", record.len()),
                )),
            });
        }
        let extent = Extent {
            offset: state.end,
            len: record.len() as u32,
        };
        state.end += record.len() as u64;
        index(&mut state.index, extent);
        Ok(())
    }

    /// Reads the record at `extent` back and returns its payload, or
    /// `None` if it no longer frames, checks or has the expected kind.
    fn read(&self, extent: Extent, kind: Kind) -> Option<String> {
        let mut buf = vec![0u8; extent.len as usize];
        self.file.read_exact_at(&mut buf, extent.offset).ok()?;
        match unframe(&buf)? {
            (k, payload, len) if k == kind && len == buf.len() => Some(payload.to_string()),
            _ => None,
        }
    }

    /// A view of this journal for one campaign: `scope` (the empty
    /// string for the runner, the tenant for the service) and the
    /// campaign's fingerprint. Appends the `campaign` record unless the
    /// journal already holds one for this scope and fingerprint.
    ///
    /// `scope` must be a path-safe name without whitespace: it also
    /// names the directory policy snapshots go in.
    ///
    /// # Errors
    ///
    /// A failed append.
    pub fn campaign(
        self: &Arc<Self>,
        scope: &str,
        fingerprint: u64,
        total_tasks: usize,
    ) -> Result<CheckpointDir, CheckpointError> {
        // Claim the key before appending, so concurrent opens of one
        // campaign write its record once; a failed append gives it back.
        let (scope_id, name, new) = {
            let mut state = self.state.lock().expect("journal lock");
            let id = state.index.scope_id(scope);
            let name = Arc::clone(&state.index.scopes[id as usize]);
            (id, name, state.index.campaigns.insert((id, fingerprint)))
        };
        if new {
            let payload =
                format!("scope {scope}\nfingerprint {fingerprint:016x}\ntasks {total_tasks}\n");
            if let Err(e) = self.append(Kind::Campaign, &payload, |_, _| {}) {
                let mut state = self.state.lock().expect("journal lock");
                state.index.campaigns.remove(&(scope_id, fingerprint));
                return Err(e);
            }
        }
        Ok(CheckpointDir {
            journal: Arc::clone(self),
            scope: name,
            scope_id,
            fingerprint,
            dir: OnceLock::new(),
        })
    }

    /// Appends a `submitted` record: `tenant` submitted `spec_text` at
    /// `priority` and was acknowledged with campaign `id`.
    ///
    /// # Errors
    ///
    /// A failed append.
    pub fn submit(
        &self,
        tenant: &str,
        id: &str,
        priority: u32,
        spec_text: &str,
    ) -> Result<(), CheckpointError> {
        let mut payload = String::with_capacity(64 + spec_text.len());
        writeln!(payload, "scope {tenant}\nid {id}\npriority {priority}").expect("write to string");
        payload.push_str(spec_text);
        self.append(Kind::Submitted, &payload, |index, extent| {
            index.submitted.push(extent);
        })
    }

    /// Appends a `cancelled` record: `tenant` cancelled its campaign
    /// with this fingerprint.
    ///
    /// # Errors
    ///
    /// A failed append.
    pub fn cancel(&self, tenant: &str, fingerprint: u64) -> Result<(), CheckpointError> {
        let payload = format!(
            "scope {tenant}\nid {}\n",
            CheckpointDir::namespace(fingerprint)
        );
        self.append(Kind::Cancelled, &payload, |index, _| {
            let scope = index.scope_id(tenant);
            index.cancelled.insert((scope, fingerprint));
        })
    }

    /// Whether the journal holds a `cancelled` record for `tenant`'s
    /// campaign with this fingerprint.
    pub fn is_cancelled(&self, tenant: &str, fingerprint: u64) -> bool {
        let state = self.state.lock().expect("journal lock");
        let index = &state.index;
        index
            .find_scope(tenant)
            .is_some_and(|scope| index.cancelled.contains(&(scope, fingerprint)))
    }

    /// Every readable `submitted` record, in the order they were
    /// appended.
    pub fn submissions(&self) -> Vec<Submission> {
        let extents = self
            .state
            .lock()
            .expect("journal lock")
            .index
            .submitted
            .clone();
        extents
            .into_iter()
            .filter_map(|extent| self.read(extent, Kind::Submitted))
            .filter_map(|payload| Submission::parse(&payload).ok())
            .collect()
    }
}

/// One campaign's view of a checkpoint directory's journal.
#[derive(Debug)]
pub struct CheckpointDir {
    journal: Arc<Journal>,
    scope: Arc<str>,
    scope_id: u32,
    fingerprint: u64,
    /// [`path`](Self::path), built on first use: most campaigns never
    /// write a policy snapshot.
    dir: OnceLock<PathBuf>,
}

impl CheckpointDir {
    /// Opens the journal of `dir` (creating both if needed) for the
    /// runner's campaign with the given fingerprint and task count.
    ///
    /// Any number of campaigns share one directory: their records are
    /// keyed by fingerprint, and each gets its own
    /// [`path`](Self::path) for policy snapshots.
    ///
    /// # Errors
    ///
    /// Filesystem failures opening the journal or appending its
    /// `campaign` record.
    pub fn open(dir: &Path, fingerprint: u64, total_tasks: usize) -> Result<Self, CheckpointError> {
        Journal::open(dir)?.campaign("", fingerprint, total_tasks)
    }

    /// The per-campaign name for a fingerprint — `c-<fingerprint:016x>`,
    /// which is also the campaign id used by `rlnoc-serve`.
    pub fn namespace(fingerprint: u64) -> String {
        format!("c-{fingerprint:016x}")
    }

    /// The fingerprint a [`namespace`](Self::namespace) names; `None`
    /// for anything `namespace` does not render.
    pub fn parse_namespace(name: &str) -> Option<u64> {
        textfmt::hex16(name.strip_prefix("c-")?)
    }

    /// The directory this campaign's per-task files (RL policy
    /// snapshots, `task-NNNN.policy`) go in: the campaign's namespace
    /// under the journal's directory, below the scope when there is
    /// one. It is created by whoever first writes a file there.
    pub fn path(&self) -> &Path {
        self.dir.get_or_init(|| {
            let mut dir = self.journal.dir.join(&*self.scope);
            dir.push(Self::namespace(self.fingerprint));
            dir
        })
    }

    /// The campaign fingerprint this view is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Appends the finished report for task `index` to the journal.
    /// Storing one index twice is harmless: the later record wins.
    ///
    /// # Errors
    ///
    /// A failed append.
    pub fn store(&self, index: usize, report: &ExperimentReport) -> Result<(), CheckpointError> {
        let task = u32::try_from(index)
            .map_err(|_| CheckpointError::Corrupt(format!("task index {index} out of range")))?;
        let payload = self.task_payload(index, report);
        let key = (self.scope_id, self.fingerprint, task);
        self.journal.append(Kind::Task, &payload, |idx, extent| {
            idx.tasks.insert(key, extent);
        })
    }

    /// Loads the report for task `index`, if the journal holds a valid
    /// record of it.
    ///
    /// Missing, damaged, or foreign records all return `None` — the
    /// caller just re-runs the task.
    pub fn load(&self, index: usize) -> Option<ExperimentReport> {
        let task = u32::try_from(index).ok()?;
        let extent = {
            let state = self.journal.state.lock().expect("journal lock");
            *state
                .index
                .tasks
                .get(&(self.scope_id, self.fingerprint, task))?
        };
        let payload = self.journal.read(extent, Kind::Task)?;
        let mut p = FieldParser::new(&payload);
        for key in ["scope", "fingerprint", "task"] {
            p.next_field(key).ok()?;
        }
        let report = parse_report(p.rest).ok()?;
        // Accepted only as the very bytes `store` writes for this task,
        // which also pins its scope, fingerprint and index.
        (self.task_payload(index, &report) == payload).then_some(report)
    }

    /// The payload of task `index`'s record: its key lines, the
    /// [`render_report`] body and `end`.
    fn task_payload(&self, index: usize, report: &ExperimentReport) -> String {
        let mut payload = String::with_capacity(768);
        writeln!(payload, "scope {}", self.scope).expect("write to string");
        writeln!(payload, "fingerprint {:016x}", self.fingerprint).expect("write to string");
        writeln!(payload, "task {index}").expect("write to string");
        render_report_into(&mut payload, report);
        payload.push_str("end\n");
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(seed: u64) -> ExperimentReport {
        ExperimentReport {
            scheme: ErrorControlScheme::ProposedRl,
            workload: "blackscholes".to_string(),
            seed,
            frequency_hz: 1.6e9,
            packets_injected: 1000,
            packets_delivered: 998,
            flits_delivered: 7984,
            avg_latency_cycles: 37.25,
            p99_latency_cycles: 143,
            execution_cycles: 60_000,
            drained: true,
            packet_retransmissions: 3,
            flit_retransmissions: 41,
            retransmitted_packets_equiv: 8.125,
            hop_nacks: 44,
            ecc_corrections: 12,
            crc_failures: 2,
            control_packets: 3,
            pre_retransmit_hits: 1,
            silent_corruptions: 0,
            dynamic_energy_j: 1.2345678901234e-3,
            static_energy_j: 4.4e-4,
            control_energy_j: 1.0000000000000002e-7,
            mode_histogram: [10, 20, 30, 40],
            mean_temperature_c: 67.33333333333333,
            max_temperature_c: 81.0,
            hard_fault_events: 0,
            reroute_events: 0,
            packets_lost_hard_fault: 0,
            packets_refused_unreachable: 0,
            unreachable_pairs: 0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlnoc-ckpt-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let report = sample_report(7);
        let parsed = parse_report(&format!("{}end\n", render_report(&report))).expect("parses");
        assert_eq!(parsed, report, "floats survive shortest round-trip text");
    }

    #[test]
    fn fault_free_report_renders_without_hard_fault_lines() {
        let rendered = render_report(&sample_report(7));
        assert!(
            !rendered.contains("hard_fault_events"),
            "zero-fault reports must stay byte-identical to the \
             pre-hard-fault format:\n{rendered}"
        );
    }

    #[test]
    fn faulted_report_round_trips_through_the_optional_block() {
        let mut report = sample_report(7);
        report.hard_fault_events = 3;
        report.reroute_events = 2;
        report.packets_lost_hard_fault = 17;
        report.packets_refused_unreachable = 5;
        report.unreachable_pairs = 12;
        let rendered = render_report(&report);
        assert!(rendered.contains("hard_fault_events 3"));
        let parsed = parse_report(&format!("{rendered}end\n")).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn truncated_hard_fault_block_is_corrupt() {
        let mut report = sample_report(7);
        report.hard_fault_events = 1;
        report.unreachable_pairs = 4;
        let rendered = render_report(&report);
        // Drop the last line of the block (`unreachable_pairs`).
        let cut = rendered
            .lines()
            .filter(|l| !l.starts_with("unreachable_pairs"))
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        assert!(
            parse_report(&format!("{cut}end\n")).is_err(),
            "a partial hard-fault block must not parse"
        );
    }

    #[test]
    fn store_load_round_trips_and_survives_a_reopen() {
        let dir = temp_dir("roundtrip");
        let report = sample_report(11);
        {
            let ckpt = CheckpointDir::open(&dir, 0xABCD, 4).expect("open");
            ckpt.store(2, &report).expect("store");
            assert_eq!(ckpt.load(2), Some(report.clone()));
            assert_eq!(ckpt.load(1), None, "unstored index is absent");
        }
        let reopened = CheckpointDir::open(&dir, 0xABCD, 4).expect("reopen");
        assert_eq!(reopened.load(2), Some(report));
        let files: Vec<_> = fs::read_dir(&dir).expect("list").collect();
        assert_eq!(files.len(), 1, "the journal is the only file");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn handles_on_one_directory_share_the_journal() {
        let dir = temp_dir("shared");
        let first = CheckpointDir::open(&dir, 42, 8).expect("open");
        let second = CheckpointDir::open(&dir, 42, 8).expect("second handle");
        first.store(5, &sample_report(5)).expect("store");
        assert_eq!(second.load(5).map(|r| r.seed), Some(5));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn the_later_of_two_records_for_one_task_wins() {
        let dir = temp_dir("rewrite");
        let ckpt = CheckpointDir::open(&dir, 9, 2).expect("open");
        ckpt.store(0, &sample_report(1)).expect("store");
        ckpt.store(0, &sample_report(2)).expect("store again");
        assert_eq!(ckpt.load(0).map(|r| r.seed), Some(2));
        drop(ckpt);
        let reopened = CheckpointDir::open(&dir, 9, 2).expect("reopen");
        assert_eq!(reopened.load(0).map(|r| r.seed), Some(2));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn campaigns_and_scopes_are_keyed_apart() {
        let dir = temp_dir("keys");
        let first = CheckpointDir::open(&dir, 42, 8).expect("open");
        assert_eq!(
            first.path(),
            fs::canonicalize(&dir).unwrap().join("c-000000000000002a")
        );
        let second = CheckpointDir::open(&dir, 43, 8).expect("second campaign coexists");
        let journal = Journal::open(&dir).expect("journal");
        let tenant = journal.campaign("alice", 42, 8).expect("tenant scope");
        assert_eq!(
            tenant.path(),
            journal.path().join("alice").join("c-000000000000002a")
        );
        first.store(0, &sample_report(1)).expect("store");
        second.store(0, &sample_report(2)).expect("store");
        tenant.store(0, &sample_report(3)).expect("store");
        assert_eq!(first.load(0).map(|r| r.seed), Some(1));
        assert_eq!(second.load(0).map(|r| r.seed), Some(2), "no clobbering");
        assert_eq!(tenant.load(0).map(|r| r.seed), Some(3), "per-scope records");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn reopening_a_campaign_appends_nothing() {
        let dir = temp_dir("idempotent");
        let journal_len = || fs::metadata(dir.join(JOURNAL_FILE)).expect("journal").len();
        drop(CheckpointDir::open(&dir, 7, 3).expect("open"));
        let len = journal_len();
        assert!(len > 0, "the campaign record is written");
        drop(CheckpointDir::open(&dir, 7, 3).expect("reopen after a scan"));
        let held = CheckpointDir::open(&dir, 7, 3).expect("open");
        drop(CheckpointDir::open(&dir, 7, 3).expect("reopen while shared"));
        drop(held);
        assert_eq!(journal_len(), len);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn submissions_round_trip_across_a_reopen() {
        let dir = temp_dir("submitted");
        let submission = Submission {
            tenant: "alice".into(),
            id: "c-00000000000000ff".into(),
            priority: 4,
            spec_text: "rlnoc-spec v1\nseed=1\ncrc=00000000\n".into(),
        };
        {
            let journal = Journal::open(&dir).expect("open");
            journal
                .submit(
                    &submission.tenant,
                    &submission.id,
                    submission.priority,
                    &submission.spec_text,
                )
                .expect("submit");
            assert_eq!(journal.submissions(), vec![submission.clone()]);
        }
        let journal = Journal::open(&dir).expect("reopen");
        assert_eq!(journal.submissions(), vec![submission]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn cancellations_are_keyed_by_scope_and_survive_a_reopen() {
        let dir = temp_dir("cancelled");
        {
            let journal = Journal::open(&dir).expect("open");
            assert!(!journal.is_cancelled("alice", 0xff));
            journal.cancel("alice", 0xff).expect("cancel");
            assert!(journal.is_cancelled("alice", 0xff));
        }
        let journal = Journal::open(&dir).expect("reopen");
        assert!(journal.is_cancelled("alice", 0xff));
        assert!(!journal.is_cancelled("bravo", 0xff), "another tenant's");
        assert!(!journal.is_cancelled("alice", 0xfe), "another campaign");
        assert!(journal.submissions().is_empty());
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn namespaces_parse_back_only_in_canonical_form() {
        for fingerprint in [0, 0xff, u64::MAX] {
            let name = CheckpointDir::namespace(fingerprint);
            assert_eq!(CheckpointDir::parse_namespace(&name), Some(fingerprint));
        }
        for name in [
            "c-00000000000000FF",
            "c-ff",
            "c-+0000000000000ff",
            "d-00000000000000ff",
            "c-00000000000000ff ",
        ] {
            assert_eq!(CheckpointDir::parse_namespace(name), None, "{name}");
        }
    }

    #[test]
    fn a_record_for_another_task_is_not_returned() {
        let dir = temp_dir("foreign");
        let ckpt = CheckpointDir::open(&dir, 5, 4).expect("open");
        ckpt.store(0, &sample_report(1)).expect("store");
        // Point task 1's key at task 0's record.
        {
            let mut state = ckpt.journal.state.lock().unwrap();
            let extent = state.index.tasks[&(ckpt.scope_id, 5, 0)];
            state.index.tasks.insert((ckpt.scope_id, 5, 1), extent);
        }
        assert_eq!(ckpt.load(1), None);
        assert!(ckpt.load(0).is_some());
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_failed_append_is_an_error_and_indexes_nothing() {
        // `/dev/full` accepts the open and fails every write with ENOSPC.
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = temp_dir("enospc");
        fs::create_dir_all(&dir).expect("mkdir");
        std::os::unix::fs::symlink("/dev/full", dir.join(JOURNAL_FILE)).expect("symlink");
        let err = CheckpointDir::open(&dir, 1, 1).expect_err("campaign record cannot be written");
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        let journal = Journal::open(&dir).expect("the journal itself opens");
        let ckpt = CheckpointDir {
            journal: Arc::clone(&journal),
            scope: Arc::from(""),
            scope_id: 0,
            fingerprint: 1,
            dir: OnceLock::new(),
        };
        assert!(ckpt.store(0, &sample_report(1)).is_err());
        assert_eq!(ckpt.load(0), None);
        drop((ckpt, journal));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn all_schemes_round_trip() {
        for scheme in ErrorControlScheme::ALL {
            let mut r = sample_report(3);
            r.scheme = scheme;
            let parsed = parse_report(&format!("{}end\n", render_report(&r))).expect("parses");
            assert_eq!(parsed.scheme, scheme);
        }
    }

    #[test]
    fn extreme_floats_round_trip() {
        let mut r = sample_report(1);
        r.avg_latency_cycles = f64::MIN_POSITIVE;
        r.dynamic_energy_j = 1.0 / 3.0;
        r.mean_temperature_c = 1e300;
        let parsed = parse_report(&format!("{}end\n", render_report(&r))).expect("parses");
        assert_eq!(parsed, r);
    }
}
