//! The campaign service: registry, persistence, recovery, and the TCP
//! request loop.
//!
//! # Life of a submission
//!
//! 1. A `submit` frame carries a tenant name, a priority, and an
//!    `rlnoc-spec v1` document. The spec is CRC- and
//!    semantics-validated, resolved to a [`Campaign`], and identified
//!    by `c-<fingerprint:016x>` — the same identity
//!    [`CheckpointDir`] keys persistence by.
//! 2. Before the submission is acknowledged, the data directory's
//!    journal (`<dir>/journal`, [`Journal`]) gains the campaign's
//!    `campaign` record and a `submitted` record holding the tenant,
//!    the id, the priority and the spec text.
//! 3. The campaign takes a slot in the registry: a dense entry holding
//!    the spec, the interned tenant, the fingerprint and its counters,
//!    indexed by `(tenant, fingerprint)`. Its tasks enter the
//!    deficit-round-robin scheduler as `(slot, task index)` pairs under
//!    the tenant's priority; [`ServicePool`] workers pull tasks across
//!    campaigns and tenants in fair-share order, resolve the spec for
//!    each, and execute it with [`execute_task`] — the exact unit
//!    `rlnoc-runner` uses, so every checkpoint, policy snapshot, and
//!    final report is byte-identical to a standalone runner invocation.
//! 4. A completed task's record is appended to the journal, scoped by
//!    tenant, before the in-memory completion count advances, so
//!    persistence always leads visibility. A task whose record cannot
//!    be written, or whose execution panics, moves its campaign to
//!    `failed`; the worker and every other campaign carry on.
//! 5. A `kill -9` at any instant loses at most in-flight tasks: on
//!    restart the server reads every `submitted` record back, reloads
//!    valid task records, re-queues only the missing tasks, and
//!    re-serves finished campaigns' results straight from disk.
//! 6. A `cancel` appends a `cancelled` record before it is
//!    acknowledged, so a cancelled campaign comes back cancelled after
//!    a restart and none of its tasks run again.
//!
//! Subscribers (`watch`) receive per-epoch telemetry for tasks that
//! execute while they are attached, as schema-v1 JSONL lines rendered
//! by `rlnoc-telemetry`'s exporter, plus `{"type":"task"}` progress
//! lines. Telemetry is observation-only by the workspace's proven
//! contract, so attaching a watcher cannot change any result byte.
//!
//! [`Campaign`]: rlnoc_core::campaign::Campaign

use crate::sched::{clamp_priority, FairScheduler};
use crate::wire::{payload_field, read_frame, write_frame, Frame, FrameType, WireError};
use rlnoc_core::experiment::ExperimentReport;
use rlnoc_core::spec::CampaignSpec;
use rlnoc_runner::{execute_task, CheckpointDir, Job, JobSource, Journal, ServicePool};
use rlnoc_telemetry::export::{json_escape, write_jsonl};
use rlnoc_telemetry::Telemetry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// File (under the serve directory) the server writes its bound
/// address to — how clients and tests find a server started with an
/// OS-assigned port.
pub const ADDR_FILE: &str = "serve.addr";

/// Lifecycle of a submitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Accepted; no task has started yet.
    Queued,
    /// At least one task has completed or is executing.
    Running,
    /// Every task's report is checkpointed.
    Done,
    /// Cancelled by the tenant; queued tasks were dropped.
    Cancelled,
    /// A task's record could not be written or its execution panicked;
    /// queued tasks were dropped and `result` names the cause.
    Failed,
}

impl CampaignState {
    /// Wire token for the state.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }

    /// `true` once no further task of the campaign will execute.
    fn is_final(self) -> bool {
        matches!(self, Self::Done | Self::Cancelled | Self::Failed)
    }
}

/// Renders the canonical result text for a sequence of task reports —
/// what a `result` request returns. Built from the runner's stable
/// report serialization, so a service result is byte-comparable to a
/// standalone [`Campaign::run`](rlnoc_core::campaign::Campaign::run):
///
/// ```text
/// task 0
/// <render_report lines>
/// end
/// task 1
/// …
/// ```
pub fn render_result_text(reports: &[ExperimentReport]) -> String {
    let mut out = String::new();
    for (index, report) in reports.iter().enumerate() {
        writeln!(out, "task {index}").expect("write to string");
        out.push_str(&rlnoc_runner::render_report(report));
        out.push_str("end\n");
    }
    out
}

/// Checks a tenant name is non-empty, bounded, and path-safe (it scopes
/// journal records and names the directory under the serve root that
/// RL policy snapshots go in).
pub fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// How to run a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = OS-assigned; the
    /// bound address is written to [`ADDR_FILE`] either way).
    pub addr: String,
    /// Worker threads executing campaign tasks.
    pub jobs: usize,
    /// Root persistence directory: the journal is `<dir>/journal`, RL
    /// policy snapshots go under `<dir>/<tenant>/<campaign-id>/`.
    pub dir: PathBuf,
    /// Service telemetry (worker counters; independent of per-task
    /// simulation telemetry).
    pub telemetry: Telemetry,
    /// Start with the scheduler paused: submissions queue but nothing
    /// executes until [`Server::resume`]. Lets tests and maintenance
    /// windows stage a backlog atomically.
    pub start_paused: bool,
}

/// A point-in-time view of one campaign, for introspection and load
/// tests.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Owning tenant.
    pub tenant: String,
    /// Campaign id (`c-<fingerprint:016x>`).
    pub id: String,
    /// Tenant priority the campaign was scheduled at.
    pub priority: u32,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Tasks with checkpointed reports.
    pub completed: usize,
    /// Total tasks in the grid.
    pub total: usize,
    /// Submit-to-final latency, once final.
    pub latency: Option<Duration>,
}

/// One registered campaign. Everything it needs to run is derived again
/// from `spec` per task; the entry itself holds only identity, counters
/// and lifecycle.
struct Entry {
    /// Owning tenant: a position in [`Registry::tenants`].
    tenant: u32,
    fingerprint: u64,
    priority: u32,
    total: u32,
    completed: u32,
    state: CampaignState,
    /// The submitted spec — what the journal records and what the
    /// campaign's identity and tasks are derived from.
    spec: CampaignSpec,
    submitted: Instant,
    finished: Option<Instant>,
    subscribers: Vec<mpsc::Sender<String>>,
    /// Why a [`CampaignState::Failed`] campaign failed.
    failure: Option<Box<str>>,
}

/// Every campaign the server has registered, addressed by slot: a
/// position in `entries`. Entries are never removed, so a slot stays
/// valid for the server's lifetime.
#[derive(Default)]
struct Registry {
    /// Interned tenant names; an entry's `tenant` is a position here.
    tenants: Vec<Arc<str>>,
    /// `(tenant, fingerprint)` → slot.
    index: HashMap<(u32, u64), u32>,
    entries: Vec<Entry>,
    /// Slots in the order their campaigns finished (fairness evidence).
    completion_log: Vec<u32>,
}

impl Registry {
    fn find_tenant(&self, name: &str) -> Option<u32> {
        self.tenants
            .iter()
            .position(|t| &**t == name)
            .map(|id| id as u32)
    }

    fn tenant_id(&mut self, name: &str) -> u32 {
        self.find_tenant(name).unwrap_or_else(|| {
            self.tenants.push(Arc::from(name));
            (self.tenants.len() - 1) as u32
        })
    }

    /// The slot of `tenant`'s campaign `fingerprint`.
    fn slot(&self, tenant: &str, fingerprint: u64) -> Option<u32> {
        let tenant = self.find_tenant(tenant)?;
        self.index.get(&(tenant, fingerprint)).copied()
    }

    /// The slot a request's `tenant=` and `campaign=` fields name.
    fn find(&self, tenant: &str, id: &str) -> Option<u32> {
        self.slot(tenant, CheckpointDir::parse_namespace(id)?)
    }

    /// `(tenant, campaign id)` of `entry`, rendered.
    fn names(&self, entry: &Entry) -> (String, String) {
        (
            self.tenants[entry.tenant as usize].to_string(),
            CheckpointDir::namespace(entry.fingerprint),
        )
    }
}

struct Shared {
    journal: Arc<Journal>,
    registry: Mutex<Registry>,
    /// Queued tasks as `(slot, task index)`.
    sched: FairScheduler<(u32, u32)>,
    telemetry: Telemetry,
}

/// Outcome of registering a submission (new or deduplicated).
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// Campaign id.
    pub id: String,
    /// Total tasks.
    pub total: usize,
    /// Tasks already completed (restored from disk or deduplicated).
    pub completed: usize,
    /// State after registration.
    pub state: CampaignState,
}

/// Where a registration comes from.
enum Admission<'a> {
    /// A `submit` frame carrying this spec text, journaled before the
    /// submission is acknowledged.
    Submit(&'a str),
    /// A `submitted` record read back on restart; `cancelled` when the
    /// journal also holds the campaign's `cancelled` record.
    Recover { cancelled: bool },
}

impl Shared {
    /// Registers a parsed submission: opens its view of the journal,
    /// appends its `submitted` record for a new [`Admission::Submit`],
    /// restores any completed tasks, and enqueues the missing ones
    /// unless the campaign was cancelled. Resubmitting an identical
    /// spec deduplicates onto the existing entry and appends nothing.
    fn register(
        &self,
        tenant: &str,
        priority: u32,
        mut spec: CampaignSpec,
        admission: Admission<'_>,
    ) -> Result<SubmitOutcome, String> {
        let campaign = spec.to_campaign().map_err(|e| e.to_string())?;
        let fingerprint = campaign.fingerprint();
        let id = CheckpointDir::namespace(fingerprint);
        let total = u32::try_from(campaign.task_count())
            .map_err(|_| "campaign has too many tasks".to_string())?;

        let mut registry = self.registry.lock().expect("registry lock");
        if let Some(slot) = registry.slot(tenant, fingerprint) {
            let entry = &registry.entries[slot as usize];
            return Ok(SubmitOutcome {
                id,
                total: entry.total as usize,
                completed: entry.completed as usize,
                state: entry.state,
            });
        }
        let slot = u32::try_from(registry.entries.len())
            .map_err(|_| "campaign registry is full".to_string())?;

        let ckpt = self
            .journal
            .campaign(tenant, fingerprint, total as usize)
            .map_err(|e| format!("cannot open campaign storage: {e}"))?;
        let cancelled = match admission {
            Admission::Submit(spec_text) => {
                self.journal
                    .submit(tenant, &id, priority, spec_text)
                    .map_err(|e| format!("cannot persist submission: {e}"))?;
                false
            }
            Admission::Recover { cancelled } => cancelled,
        };

        let mut pending = Vec::new();
        let mut completed = 0u32;
        for index in 0..total {
            if ckpt.load(index as usize).is_some() {
                completed += 1;
            } else if !cancelled {
                pending.push((slot, index));
            }
        }
        let state = if cancelled {
            CampaignState::Cancelled
        } else if completed == total {
            CampaignState::Done
        } else if completed > 0 {
            CampaignState::Running
        } else {
            CampaignState::Queued
        };
        // The spec lives as long as the server: drop the slack parsing
        // left in its lists.
        spec.schemes.shrink_to_fit();
        spec.workloads.shrink_to_fit();
        let now = Instant::now();
        let tenant_id = registry.tenant_id(tenant);
        registry.index.insert((tenant_id, fingerprint), slot);
        registry.entries.push(Entry {
            tenant: tenant_id,
            fingerprint,
            priority,
            total,
            completed,
            state,
            spec,
            submitted: now,
            finished: state.is_final().then_some(now),
            subscribers: Vec::new(),
            failure: None,
        });
        drop(registry);
        self.telemetry.counter("serve.submissions").add(1);
        if !pending.is_empty() {
            self.sched.enqueue(tenant, priority, pending);
        }
        Ok(SubmitOutcome {
            id,
            total: total as usize,
            completed: completed as usize,
            state,
        })
    }

    /// Executes task `index` of the campaign in `slot`, pulled from the
    /// scheduler.
    fn run_task(&self, slot: u32, index: u32) {
        let (resolved, tenant, fingerprint, total, streaming) = {
            let mut guard = self.registry.lock().expect("registry lock");
            let registry = &mut *guard;
            let entry = &mut registry.entries[slot as usize];
            if entry.state.is_final() {
                return; // cancelled while queued
            }
            entry.state = CampaignState::Running;
            (
                entry.spec.to_campaign(),
                Arc::clone(&registry.tenants[entry.tenant as usize]),
                entry.fingerprint,
                entry.total,
                !entry.subscribers.is_empty(),
            )
        };
        let opened = resolved.map_err(|e| e.to_string()).and_then(|campaign| {
            self.journal
                .campaign(&tenant, fingerprint, total as usize)
                .map(|ckpt| (campaign, ckpt))
                .map_err(|e| e.to_string())
        });
        let (mut campaign, ckpt) = match opened {
            Ok(opened) => opened,
            Err(e) => return self.fail(slot, format!("task {index}: {e}")),
        };
        let task = campaign.task(index as usize);

        // Attach a fresh telemetry handle only when someone is
        // watching: observation-only by contract, so the report bytes
        // cannot depend on it.
        if streaming {
            campaign.telemetry = Telemetry::enabled();
        }
        // No registry lock is held here, so a panic cannot poison one.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_task(&campaign, &task, Some(&ckpt))
        }));
        let report = match outcome {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => return self.fail(slot, format!("task {index}: {e}")),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                return self.fail(slot, format!("task {index} panicked: {what}"));
            }
        };

        let mut events: Vec<String> = Vec::new();
        if streaming {
            let mut buf = Vec::new();
            if write_jsonl(&campaign.telemetry, &mut buf).is_ok() {
                for line in String::from_utf8_lossy(&buf).lines() {
                    if line.starts_with("{\"type\":\"run\"")
                        || line.starts_with("{\"type\":\"epoch\"")
                    {
                        events.push(line.to_string());
                    }
                }
            }
        }

        let mut guard = self.registry.lock().expect("registry lock");
        let registry = &mut *guard;
        let entry = &mut registry.entries[slot as usize];
        entry.completed += 1;
        let finished = entry.completed == entry.total && !entry.state.is_final();
        if finished {
            entry.state = CampaignState::Done;
            entry.finished = Some(Instant::now());
        }
        // The progress line is rendered only for someone to send it to.
        if !entry.subscribers.is_empty() {
            let workload = campaign
                .workloads
                .get(task.workload)
                .map_or("?", |w| w.name);
            events.push(format!(
                "{{\"type\":\"task\",\"tenant\":\"{}\",\"campaign\":\"{}\",\"index\":{index},\"scheme\":\"{}\",\"workload\":\"{}\",\"completed\":{},\"total\":{}}}",
                json_escape(&tenant),
                CheckpointDir::namespace(fingerprint),
                report.scheme,
                json_escape(workload),
                entry.completed,
                entry.total
            ));
            entry
                .subscribers
                .retain(|tx| events.iter().all(|line| tx.send(line.clone()).is_ok()));
        }
        if finished {
            entry.subscribers.clear(); // hang up watchers: stream is over
            registry.completion_log.push(slot);
        }
        drop(guard);
        if finished {
            self.telemetry.counter("serve.campaigns_completed").add(1);
        }
    }

    /// Ends the campaign in `slot` in [`CampaignState::Failed`] with
    /// `cause`, hangs up its watchers and drops its queued tasks.
    fn fail(&self, slot: u32, cause: String) {
        let mut registry = self.registry.lock().expect("registry lock");
        let entry = &mut registry.entries[slot as usize];
        if entry.state.is_final() {
            return;
        }
        entry.state = CampaignState::Failed;
        entry.finished = Some(Instant::now());
        entry.subscribers.clear();
        entry.failure = Some(cause.into());
        drop(registry);
        self.sched.retain(|_, &(s, _)| s != slot);
        self.telemetry.counter("serve.campaigns_failed").add(1);
    }

    /// Re-registers every submission the journal holds (crash recovery
    /// / warm restart) without appending anything. A campaign the
    /// journal records as cancelled comes back cancelled.
    fn recover(&self) -> usize {
        let mut recovered = 0;
        for s in self.journal.submissions() {
            if !valid_tenant(&s.tenant) {
                continue;
            }
            let Ok(spec) = CampaignSpec::from_text(&s.spec_text) else {
                continue;
            };
            // The recorded id must match the spec's identity — a
            // tampered record is skipped, never run.
            let Ok(fingerprint) = spec.fingerprint() else {
                continue;
            };
            if CheckpointDir::parse_namespace(&s.id) != Some(fingerprint) {
                continue;
            }
            let admission = Admission::Recover {
                cancelled: self.journal.is_cancelled(&s.tenant, fingerprint),
            };
            let priority = clamp_priority(s.priority);
            if self.register(&s.tenant, priority, spec, admission).is_ok() {
                recovered += 1;
            }
        }
        recovered
    }
}

/// Parses a wire submission body: header fields up to the literal
/// `spec` line, then a verbatim `rlnoc-spec v1` document. Returns
/// `(priority, parsed spec, raw spec text)`, or why the body is refused.
fn parse_submission<'a>(
    text: &'a str,
    expect_tenant: &str,
) -> Result<(u32, CampaignSpec, &'a str), String> {
    const INVALID: &str = "invalid submission payload";
    let mut offset = 0usize;
    let mut priority = crate::sched::MIN_PRIORITY;
    let mut tenant_ok = false;
    let mut found_spec = false;
    for line in text.split_inclusive('\n') {
        offset += line.len();
        let line = line.trim_end_matches('\n');
        if line == "spec" {
            found_spec = true;
            break;
        } else if let Some(v) = line.strip_prefix("tenant=") {
            tenant_ok = v == expect_tenant;
        } else if let Some(v) = line.strip_prefix("priority=") {
            priority = clamp_priority(v.parse().map_err(|_| INVALID.to_string())?);
        }
    }
    if !found_spec || !tenant_ok {
        return Err(INVALID.into());
    }
    let spec_text = &text[offset..];
    let spec = CampaignSpec::from_text(spec_text).map_err(|e| format!("{INVALID}: {e}"))?;
    Ok((priority, spec, spec_text))
}

struct TaskSource {
    shared: Arc<Shared>,
}

impl JobSource for TaskSource {
    fn next_job(&self) -> Option<Job> {
        let (_tenant, (slot, index)) = self.shared.sched.pop()?;
        let shared = Arc::clone(&self.shared);
        Some(Box::new(move || shared.run_task(slot, index)))
    }
}

/// A running campaign service.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    pool: Option<ServicePool>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("dir", &self.journal.path())
            .finish()
    }
}

impl Server {
    /// Starts the service: recovers persisted campaigns from
    /// `config.dir`, binds the listener, writes the bound address to
    /// [`ADDR_FILE`], and spawns the worker pool and accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind/persistence I/O failures.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let journal = Journal::open(&config.dir).map_err(io::Error::other)?;
        let shared = Arc::new(Shared {
            journal,
            registry: Mutex::new(Registry::default()),
            sched: FairScheduler::new(),
            telemetry: config.telemetry.clone(),
        });
        if config.start_paused {
            shared.sched.pause();
        }
        shared.recover();

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        std::fs::write(config.dir.join(ADDR_FILE), format!("{addr}\n"))?;

        let pool = ServicePool::start(
            config.jobs,
            Arc::new(TaskSource {
                shared: Arc::clone(&shared),
            }),
            &config.telemetry,
        );

        let stop = Arc::new(AtomicBool::new(false));
        let accept_shared = Arc::clone(&shared);
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name("rlnoc-serve-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&accept_shared);
                    let _ = std::thread::Builder::new()
                        .name("rlnoc-serve-conn".to_string())
                        .spawn(move || handle_connection(&shared, stream));
                }
            })
            .expect("spawn accept thread");

        Ok(Self {
            shared,
            addr,
            stop,
            accept_handle: Some(accept_handle),
            pool: Some(pool),
        })
    }

    /// The bound listener address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Releases a paused scheduler (see
    /// [`ServerConfig::start_paused`]); a no-op on a running one.
    pub fn resume(&self) {
        self.shared.sched.resume();
    }

    /// Snapshot of every registered campaign.
    pub fn statuses(&self) -> Vec<CampaignStatus> {
        let registry = self.shared.registry.lock().expect("registry lock");
        let mut out: Vec<CampaignStatus> = registry
            .entries
            .iter()
            .map(|e| {
                let (tenant, id) = registry.names(e);
                CampaignStatus {
                    tenant,
                    id,
                    priority: e.priority,
                    state: e.state,
                    completed: e.completed as usize,
                    total: e.total as usize,
                    latency: e.finished.map(|f| f.duration_since(e.submitted)),
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.tenant, &a.id).cmp(&(&b.tenant, &b.id)));
        out
    }

    /// `(tenant, campaign)` pairs in the order campaigns finished —
    /// the fairness trace load tests assert on.
    pub fn completion_log(&self) -> Vec<(String, String)> {
        let registry = self.shared.registry.lock().expect("registry lock");
        registry
            .completion_log
            .iter()
            .map(|&slot| registry.names(&registry.entries[slot as usize]))
            .collect()
    }

    /// `true` when every registered campaign is in a final state.
    pub fn all_final(&self) -> bool {
        let registry = self.shared.registry.lock().expect("registry lock");
        !registry.entries.is_empty() && registry.entries.iter().all(|e| e.state.is_final())
    }

    /// Graceful shutdown: stop accepting, abandon queued tasks, wait
    /// for in-flight tasks to finish checkpointing.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.shared.sched.stop();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

/// Reads the address a server wrote to [`ADDR_FILE`] under `dir`,
/// polling until it appears or `timeout` elapses.
pub fn wait_for_addr(dir: &Path, timeout: Duration) -> Option<String> {
    let deadline = Instant::now() + timeout;
    let path = dir.join(ADDR_FILE);
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return Some(addr);
            }
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn error_frame(message: &str) -> Frame {
    Frame::text(FrameType::Error, &format!("message={message}\n"))
}

/// Serves one client connection: a loop of request frames until the
/// peer closes. Request-level failures answer with an `error` frame
/// and keep the connection; a malformed frame poisons stream framing,
/// answers `error`, and closes.
fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    // Every reply is one whole frame written at once; Nagle would only
    // hold the next one back behind the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    // One buffered reader for the connection's lifetime: a frame header
    // costs one read(2), not one per byte.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(WireError::Closed) | Err(WireError::Io(_)) => return,
            Err(WireError::Malformed(msg)) => {
                let _ = write_frame(&mut stream, &error_frame(&msg));
                return;
            }
        };
        let keep_going = dispatch(shared, &mut stream, &frame);
        if !keep_going {
            return;
        }
    }
}

/// Handles one request frame; returns `false` to close the connection.
fn dispatch(shared: &Arc<Shared>, stream: &mut TcpStream, frame: &Frame) -> bool {
    let reply = |stream: &mut TcpStream, frame: &Frame| write_frame(stream, frame).is_ok();
    let text = match frame.payload_text() {
        Ok(t) => t.to_string(),
        Err(_) => return reply(stream, &error_frame("payload is not UTF-8")),
    };
    match frame.kind {
        FrameType::Submit => {
            let Some(tenant) = payload_field(&text, "tenant").map(str::to_string) else {
                return reply(stream, &error_frame("missing tenant"));
            };
            if !valid_tenant(&tenant) {
                return reply(stream, &error_frame("invalid tenant name"));
            }
            match parse_submission(&text, &tenant) {
                Ok((priority, spec, spec_text)) => {
                    match shared.register(&tenant, priority, spec, Admission::Submit(spec_text)) {
                        Ok(out) => reply(
                            stream,
                            &Frame::text(
                                FrameType::SubmitOk,
                                &format!(
                                    "campaign={}\ntasks={}\ncompleted={}\nstate={}\n",
                                    out.id,
                                    out.total,
                                    out.completed,
                                    out.state.as_str()
                                ),
                            ),
                        ),
                        Err(msg) => reply(stream, &error_frame(&msg)),
                    }
                }
                Err(msg) => reply(stream, &error_frame(&msg)),
            }
        }
        FrameType::Status => match lookup(shared, &text) {
            Ok(found) => reply(
                stream,
                &Frame::text(
                    FrameType::StatusOk,
                    &format!(
                        "campaign={}\nstate={}\ncompleted={}\ntotal={}\n",
                        found.id,
                        found.state.as_str(),
                        found.completed,
                        found.total
                    ),
                ),
            ),
            Err(msg) => reply(stream, &error_frame(&msg)),
        },
        FrameType::Watch => handle_watch(shared, stream, &text),
        FrameType::Result => match handle_result(shared, &text) {
            Ok(body) => reply(stream, &Frame::text(FrameType::ResultOk, &body)),
            Err(msg) => reply(stream, &error_frame(&msg)),
        },
        FrameType::Cancel => match handle_cancel(shared, &text) {
            Ok(state) => reply(
                stream,
                &Frame::text(FrameType::CancelOk, &format!("state={}\n", state.as_str())),
            ),
            Err(msg) => reply(stream, &error_frame(&msg)),
        },
        _ => reply(stream, &error_frame("unexpected frame type for a request")),
    }
}

/// A registered campaign a request named, as it stood when looked up.
struct Found<'a> {
    tenant: &'a str,
    id: &'a str,
    slot: u32,
    fingerprint: u64,
    state: CampaignState,
    completed: u32,
    total: u32,
}

/// Resolves `tenant=`/`campaign=` fields to a registered campaign.
fn lookup<'a>(shared: &Shared, text: &'a str) -> Result<Found<'a>, String> {
    let tenant = payload_field(text, "tenant").ok_or("missing tenant")?;
    let id = payload_field(text, "campaign").ok_or("missing campaign")?;
    let registry = shared.registry.lock().expect("registry lock");
    let slot = registry.find(tenant, id).ok_or("unknown campaign")?;
    let entry = &registry.entries[slot as usize];
    Ok(Found {
        tenant,
        id,
        slot,
        fingerprint: entry.fingerprint,
        state: entry.state,
        completed: entry.completed,
        total: entry.total,
    })
}

fn handle_watch(shared: &Arc<Shared>, stream: &mut TcpStream, text: &str) -> bool {
    let done_frame = |id: &str, state: CampaignState| {
        Frame::text(
            FrameType::WatchDone,
            &format!("campaign={id}\nstate={}\n", state.as_str()),
        )
    };
    let Some(tenant) = payload_field(text, "tenant") else {
        return write_frame(stream, &error_frame("missing tenant")).is_ok();
    };
    let Some(id) = payload_field(text, "campaign") else {
        return write_frame(stream, &error_frame("missing campaign")).is_ok();
    };
    let (slot, rx) = {
        let mut registry = shared.registry.lock().expect("registry lock");
        let Some(slot) = registry.find(tenant, id) else {
            drop(registry);
            return write_frame(stream, &error_frame("unknown campaign")).is_ok();
        };
        let entry = &mut registry.entries[slot as usize];
        if entry.state.is_final() {
            let state = entry.state;
            drop(registry);
            return write_frame(stream, &done_frame(id, state)).is_ok();
        }
        let (tx, rx) = mpsc::channel();
        entry.subscribers.push(tx);
        (slot, rx)
    };
    // Stream until the campaign reaches a final state (senders dropped)
    // or the client goes away (write fails).
    for line in rx.iter() {
        if write_frame(stream, &Frame::text(FrameType::Event, &line)).is_err() {
            return false;
        }
    }
    let state = shared.registry.lock().expect("registry lock").entries[slot as usize].state;
    write_frame(stream, &done_frame(id, state)).is_ok()
}

fn handle_result(shared: &Shared, text: &str) -> Result<String, String> {
    let found = lookup(shared, text)?;
    match found.state {
        CampaignState::Done => {}
        CampaignState::Failed => {
            let registry = shared.registry.lock().expect("registry lock");
            let entry = &registry.entries[found.slot as usize];
            let cause = entry.failure.as_deref().unwrap_or("cause unknown");
            return Err(format!("campaign {} failed: {cause}", found.id));
        }
        state => {
            return Err(format!(
                "campaign {} is {}, result requires done",
                found.id,
                state.as_str()
            ))
        }
    }
    let ckpt = shared
        .journal
        .campaign(found.tenant, found.fingerprint, found.total as usize)
        .map_err(|e| format!("cannot open campaign storage: {e}"))?;
    let mut reports = Vec::with_capacity(found.total as usize);
    for index in 0..found.total as usize {
        reports.push(
            ckpt.load(index)
                .ok_or_else(|| format!("checkpoint {index} unreadable"))?,
        );
    }
    Ok(render_result_text(&reports))
}

/// Cancels a campaign. The journal's `cancelled` record is appended
/// before the state changes, so an acknowledged cancel survives a
/// restart; a failed append leaves the campaign as it was.
fn handle_cancel(shared: &Shared, text: &str) -> Result<CampaignState, String> {
    let tenant = payload_field(text, "tenant").ok_or("missing tenant")?;
    let id = payload_field(text, "campaign").ok_or("missing campaign")?;
    let mut registry = shared.registry.lock().expect("registry lock");
    let slot = registry.find(tenant, id).ok_or("unknown campaign")?;
    let entry = &mut registry.entries[slot as usize];
    if entry.state.is_final() {
        return Ok(entry.state);
    }
    shared
        .journal
        .cancel(tenant, entry.fingerprint)
        .map_err(|e| format!("cannot persist cancellation: {e}"))?;
    entry.state = CampaignState::Cancelled;
    entry.finished = Some(Instant::now());
    entry.subscribers.clear();
    drop(registry);
    shared.sched.retain(|_, &(s, _)| s != slot);
    Ok(CampaignState::Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_validation_is_path_safe() {
        assert!(valid_tenant("alice"));
        assert!(valid_tenant("team-7_b"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("../escape"));
        assert!(!valid_tenant("a/b"));
        assert!(!valid_tenant("a b"));
        assert!(!valid_tenant(&"x".repeat(65)));
    }

    #[test]
    fn submission_round_trips_through_parse() {
        let spec = CampaignSpec::tiny(3);
        let spec_text = spec.to_text();
        let body = format!("tenant=alice\npriority=4\nspec\n{spec_text}");
        let (priority, parsed, raw) = parse_submission(&body, "alice").expect("parses");
        assert_eq!(priority, 4);
        assert_eq!(parsed, spec);
        assert_eq!(raw, spec_text);
        assert!(parse_submission(&body, "bob").is_err(), "tenant must match");
        assert!(
            parse_submission("tenant=alice\nspec\ngarbage", "alice").is_err(),
            "spec must validate"
        );
    }

    #[test]
    fn result_text_is_deterministic() {
        let spec = CampaignSpec::tiny(5);
        let result = spec.to_campaign().expect("valid").run();
        let a = render_result_text(&result.reports);
        let b = render_result_text(&result.reports);
        assert_eq!(a, b);
        assert!(a.starts_with("task 0\nscheme CRC\n"));
    }
}
