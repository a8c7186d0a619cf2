//! Peak heap while reading a policy snapshot, counted by a global
//! allocator that tracks live and peak heap bytes. This is a test binary
//! of its own so that no other test binary's allocations land in the
//! count; its two tests may overlap, but each allocates a small fraction
//! of the bound the other asserts.

use noc_rl::qtable::{QTable, MAX_STATES};
use noc_rl::snapshot::{PolicySnapshot, MAX_AGENTS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: requested sizes of every allocation not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since the last [`peak_since`] reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn grew(by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters only observe sizes.
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

/// Runs `f` and returns its result with the most heap it held live at
/// once beyond what was live when it started.
fn peak_since<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// Ceiling on the heap a read may hold, 1/16 of what 65 536 dense page
/// directories took.
const LIMIT: isize = 64 << 20;

#[test]
fn a_bank_of_empty_tables_at_both_caps_reads_in_bounded_memory() {
    // `agents=65536 states=65536` and 65 536 sections of `qtable 65536 0`:
    // ≈1.7 MB of CRC-valid text that once held 1 GiB of page directories.
    let bank = PolicySnapshot::new(vec![QTable::new(MAX_STATES); MAX_AGENTS]);
    let mut bytes = Vec::new();
    bank.write(&mut bytes).expect("write to memory");
    assert!(
        bytes.starts_with(b"rlnoc-policy v1 agents=65536 states=65536\nagent 0\nqtable 65536 0\n")
    );
    assert!(bytes.len() < 2 << 20, "{} bytes", bytes.len());

    let (read, peak) = peak_since(|| PolicySnapshot::read(&bytes[..]).expect("valid bank"));
    assert!(
        peak < LIMIT,
        "reading held {peak} heap bytes (limit {LIMIT})"
    );
    assert_eq!(read, bank);
    let mut again = Vec::new();
    read.write(&mut again).expect("write to memory");
    assert!(again == bytes, "the bank's bytes survive a round trip");
}

#[test]
fn a_bank_written_at_the_state_cap_round_trips() {
    // The first and last states of the largest legal table: the page
    // directory grows to its full 2 048 entries.
    let tables: Vec<QTable> = (0..4)
        .map(|i| {
            let mut q = QTable::new(MAX_STATES);
            q.update(0, i % 4, 1.5, MAX_STATES - 1, 0.5, 0.9);
            q.update(MAX_STATES - 1, 3 - i % 4, -2.0, 0, 0.25, 0.9);
            q
        })
        .collect();
    let bank = PolicySnapshot::new(tables);
    let mut bytes = Vec::new();
    bank.write(&mut bytes).expect("write to memory");
    let (read, peak) = peak_since(|| PolicySnapshot::read(&bytes[..]).expect("valid bank"));
    assert!(
        peak < LIMIT,
        "reading held {peak} heap bytes (limit {LIMIT})"
    );
    assert_eq!(read, bank);
    for table in read.tables() {
        assert_eq!(table.touched_states(), 64, "two pages of 32 rows");
        assert_ne!(table.row(MAX_STATES - 1), &[0.0; 4]);
    }
}
