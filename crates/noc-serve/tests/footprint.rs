//! What the service keeps in memory per staged campaign, counted by a
//! global allocator that tracks live heap bytes. This is a test binary
//! of its own so that no other test's allocations land in the count.

use rlnoc_core::spec::CampaignSpec;
use rlnoc_serve::{Client, Server, ServerConfig};
use rlnoc_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: requested sizes of every allocation not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
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
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
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

#[test]
fn a_staged_campaign_costs_at_most_512_heap_bytes() {
    let dir = std::env::temp_dir().join(format!("rlnoc-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        dir: dir.clone(),
        telemetry: Telemetry::disabled(),
        start_paused: true,
    })
    .expect("server starts");
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
