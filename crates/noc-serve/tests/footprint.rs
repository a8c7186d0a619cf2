//! What the service keeps in memory per staged campaign, and what a
//! refused one costs it, counted by a global allocator that tracks live
//! and peak heap bytes. This is a test binary of its own so that no
//! other test's allocations land in the count, and its tests run one at
//! a time.

use rlnoc_core::spec::CampaignSpec;
use rlnoc_serve::{Client, Server, ServerConfig};
use rlnoc_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Live heap bytes: requested sizes of every allocation not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since the last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Held by each test, so that no two count at once.
static SERIAL: Mutex<()> = Mutex::new(());

struct Counting;

fn grew(by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Campaigns staged; enough that per-campaign cost dominates fixed cost.
const CAMPAIGNS: u64 = 2_000;
/// Ceiling on live heap bytes per staged campaign.
const LIMIT: isize = 512;

/// A paused server on a fresh directory named after `tag`.
fn start(tag: &str) -> (Server, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("rlnoc-footprint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        dir: dir.clone(),
        telemetry: Telemetry::disabled(),
        start_paused: true,
    })
    .expect("server starts");
    (server, dir)
}

#[test]
fn a_staged_campaign_costs_at_most_512_heap_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (server, dir) = start("staged");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    // One campaign first, so the tenant, the connection and the
    // scheduler queue exist before counting starts.
    let first = CampaignSpec::tiny(0);
    client.submit("alice", 1, &first.to_text()).expect("submit");
    let first_id = first.campaign_id().expect("id");

    let before = LIVE.load(Ordering::Relaxed);
    for seed in 1..=CAMPAIGNS {
        client
            .submit("alice", 1, &CampaignSpec::tiny(seed).to_text())
            .expect("submit");
    }
    // A round trip on the same connection: the server has let go of the
    // last submission's request buffers once it answers.
    client.status("alice", &first_id).expect("status");
    let after = LIVE.load(Ordering::Relaxed);

    let per_campaign = (after - before) / CAMPAIGNS as isize;
    println!("live heap bytes per staged campaign: {per_campaign}");
    assert!(
        per_campaign <= LIMIT,
        "{per_campaign} live heap bytes per staged campaign, limit {LIMIT}"
    );
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_spec_over_the_task_limit_is_refused_within_1_mib_of_server_heap() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (server, dir) = start("refused");
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    client
        .submit("alice", 1, &CampaignSpec::tiny(0).to_text())
        .expect("submit");
    // 157 CRC-valid bytes asking for 20 000 000 tasks.
    let mut spec = CampaignSpec::tiny(5);
    spec.replicates = 20_000_000;
    let text = spec.to_text();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let err = client.submit("alice", 1, &text).unwrap_err();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(err.to_string().contains("invalid submission"), "{err}");
    assert!(
        peak < 1 << 20,
        "refusing the spec held {peak} heap bytes (limit 1 MiB)"
    );
    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(dir);
}
