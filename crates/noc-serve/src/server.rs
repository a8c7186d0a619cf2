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
//! 3. The campaign's tasks enter the deficit-round-robin scheduler
//!    under the tenant's priority; [`ServicePool`] workers pull tasks
//!    across campaigns and tenants in fair-share order and execute each
//!    with [`execute_task`] — the exact unit `rlnoc-runner` uses, so
//!    every checkpoint, policy snapshot, and final report is
//!    byte-identical to a standalone runner invocation.
//! 4. A completed task's record is appended to the journal, scoped by
//!    tenant, before the in-memory completion count advances, so
//!    persistence always leads visibility. A task whose record cannot
//!    be written, or whose execution panics, moves its campaign to
//!    `failed`; the worker and every other campaign carry on.
//! 5. A `kill -9` at any instant loses at most in-flight tasks: on
//!    restart the server reads every `submitted` record back, reloads
//!    valid task records, re-queues only the missing tasks, and
//!    re-serves finished campaigns' results straight from disk.
//!
//! Subscribers (`watch`) receive per-epoch telemetry for tasks that
//! execute while they are attached, as schema-v1 JSONL lines rendered
//! by `rlnoc-telemetry`'s exporter, plus `{"type":"task"}` progress
//! lines. Telemetry is observation-only by the workspace's proven
//! contract, so attaching a watcher cannot change any result byte.

use crate::sched::{clamp_priority, FairScheduler};
use crate::wire::{payload_field, read_frame, write_frame, Frame, FrameType, WireError};
use rlnoc_core::campaign::{Campaign, CampaignTask};
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
    pub fn is_final(self) -> bool {
        matches!(self, Self::Done | Self::Cancelled | Self::Failed)
    }
}

/// Renders the canonical result text for a sequence of task reports —
/// what a `result` request returns. Built from the runner's stable
/// report serialization, so a service result is byte-comparable to a
/// standalone [`Campaign::run`]:
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

type Key = (String, String); // (tenant, campaign id)

struct Entry {
    priority: u32,
    campaign: Campaign,
    ckpt: Arc<CheckpointDir>,
    total: usize,
    completed: usize,
    state: CampaignState,
    submitted: Instant,
    finished: Option<Instant>,
    subscribers: Vec<mpsc::Sender<String>>,
}

struct Shared {
    journal: Arc<Journal>,
    campaigns: Mutex<HashMap<Key, Entry>>,
    sched: FairScheduler<(Key, CampaignTask)>,
    /// Tenant/campaign pairs in completion order (fairness evidence).
    completion_log: Mutex<Vec<Key>>,
    /// Why each [`CampaignState::Failed`] campaign failed.
    failures: Mutex<HashMap<Key, String>>,
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

impl Shared {
    /// Registers a parsed submission: opens its view of the journal,
    /// appends its `submitted` record when `persist` is set (a
    /// recovered submission already has one), restores any completed
    /// tasks, and enqueues the missing ones. Resubmitting an identical
    /// spec deduplicates onto the existing entry and appends nothing.
    fn register(
        &self,
        tenant: &str,
        priority: u32,
        spec: &CampaignSpec,
        spec_text: &str,
        persist: bool,
    ) -> Result<SubmitOutcome, String> {
        let campaign = spec.to_campaign().map_err(|e| e.to_string())?;
        let fingerprint = campaign.fingerprint();
        let id = format!("c-{fingerprint:016x}");
        let key: Key = (tenant.to_string(), id.clone());
        let tasks = campaign.tasks();
        let total = tasks.len();

        let mut campaigns = self.campaigns.lock().expect("registry lock");
        if let Some(entry) = campaigns.get(&key) {
            return Ok(SubmitOutcome {
                id,
                total: entry.total,
                completed: entry.completed,
                state: entry.state,
            });
        }

        let ckpt = self
            .journal
            .campaign(tenant, fingerprint, total)
            .map_err(|e| format!("cannot open campaign storage: {e}"))?;
        if persist {
            self.journal
                .submit(tenant, &id, priority, spec_text)
                .map_err(|e| format!("cannot persist submission: {e}"))?;
        }

        let mut pending = Vec::new();
        let mut completed = 0usize;
        for task in tasks {
            if ckpt.load(task.index).is_some() {
                completed += 1;
            } else {
                pending.push(((tenant.to_string(), id.clone()), task));
            }
        }
        let state = if completed == total {
            CampaignState::Done
        } else if completed > 0 {
            CampaignState::Running
        } else {
            CampaignState::Queued
        };
        let now = Instant::now();
        campaigns.insert(
            key,
            Entry {
                priority,
                campaign,
                ckpt: Arc::new(ckpt),
                total,
                completed,
                state,
                submitted: now,
                finished: state.is_final().then_some(now),
                subscribers: Vec::new(),
            },
        );
        drop(campaigns);
        self.telemetry.counter("serve.submissions").add(1);
        if !pending.is_empty() {
            self.sched.enqueue(tenant, priority, pending);
        }
        Ok(SubmitOutcome {
            id,
            total,
            completed,
            state,
        })
    }

    /// Executes one task pulled from the scheduler.
    fn run_task(&self, key: Key, task: CampaignTask) {
        let (mut campaign, ckpt, streaming) = {
            let mut campaigns = self.campaigns.lock().expect("registry lock");
            let Some(entry) = campaigns.get_mut(&key) else {
                return;
            };
            if entry.state.is_final() {
                return; // cancelled while queued
            }
            entry.state = CampaignState::Running;
            (
                entry.campaign.clone(),
                Arc::clone(&entry.ckpt),
                !entry.subscribers.is_empty(),
            )
        };

        // Attach a fresh telemetry handle only when someone is
        // watching: observation-only by contract, so the report bytes
        // cannot depend on it.
        if streaming {
            campaign.telemetry = Telemetry::enabled();
        }
        // No registry lock is held here, so a panic cannot poison one.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_task(&campaign, &task, Some(ckpt.as_ref()))
        }));
        let report = match outcome {
            Ok(Ok(report)) => report,
            Ok(Err(e)) => return self.fail(&key, format!("task {}: {e}", task.index)),
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                return self.fail(&key, format!("task {} panicked: {what}", task.index));
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

        let mut campaigns = self.campaigns.lock().expect("registry lock");
        let Some(entry) = campaigns.get_mut(&key) else {
            return;
        };
        entry.completed += 1;
        let workload = campaign
            .workloads
            .get(task.workload)
            .map(|w| w.name)
            .unwrap_or("?");
        events.push(format!(
            "{{\"type\":\"task\",\"tenant\":\"{}\",\"campaign\":\"{}\",\"index\":{},\"scheme\":\"{}\",\"workload\":\"{}\",\"completed\":{},\"total\":{}}}",
            json_escape(&key.0),
            json_escape(&key.1),
            task.index,
            report.scheme,
            json_escape(workload),
            entry.completed,
            entry.total
        ));
        let finished = entry.completed == entry.total && !entry.state.is_final();
        if finished {
            entry.state = CampaignState::Done;
            entry.finished = Some(Instant::now());
        }
        entry
            .subscribers
            .retain(|tx| events.iter().all(|line| tx.send(line.clone()).is_ok()));
        if finished {
            entry.subscribers.clear(); // hang up watchers: stream is over
        }
        drop(campaigns);
        if finished {
            self.completion_log
                .lock()
                .expect("completion log lock")
                .push(key);
            self.telemetry.counter("serve.campaigns_completed").add(1);
        }
    }

    /// Ends a campaign in [`CampaignState::Failed`] with `cause`, hangs
    /// up its watchers and drops its queued tasks.
    fn fail(&self, key: &Key, cause: String) {
        let mut campaigns = self.campaigns.lock().expect("registry lock");
        let Some(entry) = campaigns.get_mut(key) else {
            return;
        };
        if entry.state.is_final() {
            return;
        }
        entry.state = CampaignState::Failed;
        entry.finished = Some(Instant::now());
        entry.subscribers.clear();
        // Recorded before the registry lock drops, so whoever sees the
        // state finds the cause.
        self.failures
            .lock()
            .expect("failure log lock")
            .insert(key.clone(), cause);
        drop(campaigns);
        self.sched.retain(|_, (k, _)| k != key);
        self.telemetry.counter("serve.campaigns_failed").add(1);
    }

    /// Re-registers every submission the journal holds (crash recovery
    /// / warm restart) without appending anything.
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
            if spec.campaign_id().ok().as_deref() != Some(s.id.as_str()) {
                continue;
            }
            let priority = clamp_priority(s.priority);
            if self
                .register(&s.tenant, priority, &spec, &s.spec_text, false)
                .is_ok()
            {
                recovered += 1;
            }
        }
        recovered
    }
}

/// Parses a wire submission body: header fields up to the literal
/// `spec` line, then a verbatim `rlnoc-spec v1` document. Returns
/// `(priority, parsed spec, raw spec text)`.
fn parse_submission<'a>(
    text: &'a str,
    expect_tenant: &str,
) -> Option<(u32, CampaignSpec, &'a str)> {
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
            priority = clamp_priority(v.parse().ok()?);
        }
    }
    if !found_spec || !tenant_ok {
        return None;
    }
    let spec_text = &text[offset..];
    let spec = CampaignSpec::from_text(spec_text).ok()?;
    Some((priority, spec, spec_text))
}

struct TaskSource {
    shared: Arc<Shared>,
}

impl JobSource for TaskSource {
    fn next_job(&self) -> Option<Job> {
        let (_tenant, (key, task)) = self.shared.sched.pop()?;
        let shared = Arc::clone(&self.shared);
        Some(Box::new(move || shared.run_task(key, task)))
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
            campaigns: Mutex::new(HashMap::new()),
            sched: FairScheduler::new(),
            completion_log: Mutex::new(Vec::new()),
            failures: Mutex::new(HashMap::new()),
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
        let campaigns = self.shared.campaigns.lock().expect("registry lock");
        let mut out: Vec<CampaignStatus> = campaigns
            .iter()
            .map(|((tenant, id), e)| CampaignStatus {
                tenant: tenant.clone(),
                id: id.clone(),
                priority: e.priority,
                state: e.state,
                completed: e.completed,
                total: e.total,
                latency: e.finished.map(|f| f.duration_since(e.submitted)),
            })
            .collect();
        out.sort_by(|a, b| (&a.tenant, &a.id).cmp(&(&b.tenant, &b.id)));
        out
    }

    /// `(tenant, campaign)` pairs in the order campaigns finished —
    /// the fairness trace load tests assert on.
    pub fn completion_log(&self) -> Vec<(String, String)> {
        self.shared
            .completion_log
            .lock()
            .expect("completion log lock")
            .clone()
    }

    /// `true` when every registered campaign is in a final state.
    pub fn all_final(&self) -> bool {
        let campaigns = self.shared.campaigns.lock().expect("registry lock");
        !campaigns.is_empty() && campaigns.values().all(|e| e.state.is_final())
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
                Some((priority, spec, spec_text)) => {
                    match shared.register(&tenant, priority, &spec, spec_text, true) {
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
                None => reply(stream, &error_frame("invalid submission payload")),
            }
        }
        FrameType::Status => match lookup(shared, &text) {
            Ok((key, state, completed, total)) => reply(
                stream,
                &Frame::text(
                    FrameType::StatusOk,
                    &format!(
                        "campaign={}\nstate={}\ncompleted={completed}\ntotal={total}\n",
                        key.1,
                        state.as_str()
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

/// Resolves `tenant=`/`campaign=` fields to a registered campaign.
fn lookup(shared: &Shared, text: &str) -> Result<(Key, CampaignState, usize, usize), String> {
    let tenant = payload_field(text, "tenant").ok_or("missing tenant")?;
    let id = payload_field(text, "campaign").ok_or("missing campaign")?;
    let key: Key = (tenant.to_string(), id.to_string());
    let campaigns = shared.campaigns.lock().expect("registry lock");
    let entry = campaigns.get(&key).ok_or("unknown campaign")?;
    Ok((key, entry.state, entry.completed, entry.total))
}

fn handle_watch(shared: &Arc<Shared>, stream: &mut TcpStream, text: &str) -> bool {
    let done_frame = |key: &Key, state: CampaignState| {
        Frame::text(
            FrameType::WatchDone,
            &format!("campaign={}\nstate={}\n", key.1, state.as_str()),
        )
    };
    let (key, rx) = {
        let tenant = match payload_field(text, "tenant") {
            Some(t) => t.to_string(),
            None => return write_frame(stream, &error_frame("missing tenant")).is_ok(),
        };
        let id = match payload_field(text, "campaign") {
            Some(c) => c.to_string(),
            None => return write_frame(stream, &error_frame("missing campaign")).is_ok(),
        };
        let key: Key = (tenant, id);
        let mut campaigns = shared.campaigns.lock().expect("registry lock");
        let Some(entry) = campaigns.get_mut(&key) else {
            drop(campaigns);
            return write_frame(stream, &error_frame("unknown campaign")).is_ok();
        };
        if entry.state.is_final() {
            let state = entry.state;
            drop(campaigns);
            return write_frame(stream, &done_frame(&key, state)).is_ok();
        }
        let (tx, rx) = mpsc::channel();
        entry.subscribers.push(tx);
        drop(campaigns);
        (key, rx)
    };
    // Stream until the campaign reaches a final state (senders dropped)
    // or the client goes away (write fails).
    for line in rx.iter() {
        if write_frame(stream, &Frame::text(FrameType::Event, &line)).is_err() {
            return false;
        }
    }
    let state = {
        let campaigns = shared.campaigns.lock().expect("registry lock");
        campaigns
            .get(&key)
            .map(|e| e.state)
            .unwrap_or(CampaignState::Cancelled)
    };
    write_frame(stream, &done_frame(&key, state)).is_ok()
}

fn handle_result(shared: &Shared, text: &str) -> Result<String, String> {
    let (key, state, _, total) = lookup(shared, text)?;
    match state {
        CampaignState::Done => {}
        CampaignState::Failed => {
            let failures = shared.failures.lock().expect("failure log lock");
            let cause = failures.get(&key).map_or("cause unknown", String::as_str);
            return Err(format!("campaign {} failed: {cause}", key.1));
        }
        _ => {
            return Err(format!(
                "campaign {} is {}, result requires done",
                key.1,
                state.as_str()
            ))
        }
    }
    let ckpt = {
        let campaigns = shared.campaigns.lock().expect("registry lock");
        Arc::clone(&campaigns.get(&key).ok_or("unknown campaign")?.ckpt)
    };
    let mut reports = Vec::with_capacity(total);
    for index in 0..total {
        reports.push(
            ckpt.load(index)
                .ok_or_else(|| format!("checkpoint {index} unreadable"))?,
        );
    }
    Ok(render_result_text(&reports))
}

fn handle_cancel(shared: &Shared, text: &str) -> Result<CampaignState, String> {
    let tenant = payload_field(text, "tenant").ok_or("missing tenant")?;
    let id = payload_field(text, "campaign").ok_or("missing campaign")?;
    let key: Key = (tenant.to_string(), id.to_string());
    let mut campaigns = shared.campaigns.lock().expect("registry lock");
    let entry = campaigns.get_mut(&key).ok_or("unknown campaign")?;
    if entry.state.is_final() {
        return Ok(entry.state);
    }
    entry.state = CampaignState::Cancelled;
    entry.finished = Some(Instant::now());
    entry.subscribers.clear();
    drop(campaigns);
    shared.sched.retain(|_, (k, _)| *k != key);
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
        assert!(
            parse_submission(&body, "bob").is_none(),
            "tenant must match"
        );
        assert!(
            parse_submission("tenant=alice\nspec\ngarbage", "alice").is_none(),
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
