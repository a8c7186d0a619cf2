//! Deficit-round-robin fair scheduling over tenants.
//!
//! Each tenant owns a FIFO of queued items and a priority in
//! [`MIN_PRIORITY`]..=[`MAX_PRIORITY`]. Workers pull one item at a
//! time; the scheduler visits tenants round-robin and lets the tenant
//! at the head of the rotation dequeue up to `priority` items (every
//! item costs one unit — campaign tasks are deliberately uniform)
//! before rotating to the back. Over any window in which all tenants
//! stay backlogged, tenant throughputs therefore converge to the ratio
//! of their priorities — classic deficit round robin with unit quanta.
//!
//! Fairness lives entirely in *pull order*. Task results are pure
//! functions of the task, so no scheduling decision can perturb
//! campaign reports — the property the service's byte-identity tests
//! pin down.
//!
//! The structure is a mutex + condvar around `BTreeMap<tenant, queue>`
//! plus an explicit rotation list, in the same spirit as the runner
//! pool's mutex-guarded injector: items are whole simulation tasks, so
//! lock traffic is negligible and determinism is easy to audit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Lowest (and default) tenant priority.
pub const MIN_PRIORITY: u32 = 1;

/// Highest tenant priority.
pub const MAX_PRIORITY: u32 = 10;

/// Clamps a requested priority into the supported band.
pub fn clamp_priority(p: u32) -> u32 {
    p.clamp(MIN_PRIORITY, MAX_PRIORITY)
}

#[derive(Debug)]
struct TenantQueue<T> {
    priority: u32,
    /// Remaining items the tenant may dequeue in its current turn.
    deficit: u32,
    items: VecDeque<T>,
}

#[derive(Debug)]
struct Inner<T> {
    tenants: BTreeMap<String, TenantQueue<T>>,
    /// Tenants with queued work, in rotation order.
    rotation: VecDeque<String>,
    stopped: bool,
    /// While `true`, pops block (or return `None` for `try_pop`) even
    /// with items queued — drain control for tests and maintenance.
    paused: bool,
}

/// A blocking, submission-reentrant deficit-round-robin queue.
#[derive(Debug)]
pub struct FairScheduler<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
}

impl<T> Default for FairScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FairScheduler<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                tenants: BTreeMap::new(),
                rotation: VecDeque::new(),
                stopped: false,
                paused: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues `items` for `tenant` at `priority` (clamped). The
    /// priority of a tenant with work already queued is updated for
    /// its next turn.
    pub fn enqueue(&self, tenant: &str, priority: u32, items: impl IntoIterator<Item = T>) {
        let mut inner = self.inner.lock().expect("scheduler lock");
        let queue = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantQueue {
                priority: MIN_PRIORITY,
                deficit: 0,
                items: VecDeque::new(),
            });
        queue.priority = clamp_priority(priority);
        let was_empty = queue.items.is_empty();
        let mut added = 0usize;
        for item in items {
            queue.items.push_back(item);
            added += 1;
        }
        if added == 0 {
            return;
        }
        if was_empty {
            inner.rotation.push_back(tenant.to_string());
        }
        if added == 1 {
            self.available.notify_one();
        } else {
            self.available.notify_all();
        }
    }

    /// Blocks until an item is available and dequeues it under DRR
    /// order, returning `(tenant, item)`. Returns `None` once
    /// [`stop`](Self::stop) has been called (immediately — queued items
    /// are abandoned, which is what service shutdown wants).
    pub fn pop(&self) -> Option<(String, T)> {
        let mut inner = self.inner.lock().expect("scheduler lock");
        loop {
            if inner.stopped {
                return None;
            }
            if !inner.paused {
                if let Some(out) = Self::pop_locked(&mut inner) {
                    return Some(out);
                }
            }
            inner = self.available.wait(inner).expect("scheduler wait");
        }
    }

    /// Non-blocking [`pop`](Self::pop): `None` when idle, paused, or
    /// stopped.
    #[cfg(test)]
    fn try_pop(&self) -> Option<(String, T)> {
        let mut inner = self.inner.lock().expect("scheduler lock");
        if inner.stopped || inner.paused {
            return None;
        }
        Self::pop_locked(&mut inner)
    }

    fn pop_locked(inner: &mut Inner<T>) -> Option<(String, T)> {
        let tenant = inner.rotation.front()?.clone();
        let queue = inner
            .tenants
            .get_mut(&tenant)
            .expect("rotation entries have queues");
        if queue.deficit == 0 {
            queue.deficit = queue.priority;
        }
        let item = queue
            .items
            .pop_front()
            .expect("rotation entries are non-empty");
        queue.deficit -= 1;
        if queue.items.is_empty() {
            // Turn ends early; a future enqueue starts a fresh turn.
            queue.deficit = 0;
            inner.rotation.pop_front();
        } else if queue.deficit == 0 {
            inner.rotation.rotate_left(1);
        }
        Some((tenant, item))
    }

    /// Drops every queued item failing `keep` (cancellation). Running
    /// items are unaffected — they already left the queue.
    pub fn retain(&self, mut keep: impl FnMut(&str, &T) -> bool) {
        let mut inner = self.inner.lock().expect("scheduler lock");
        let mut emptied: Vec<String> = Vec::new();
        for (tenant, queue) in inner.tenants.iter_mut() {
            queue.items.retain(|item| keep(tenant, item));
            if queue.items.is_empty() {
                queue.deficit = 0;
                emptied.push(tenant.clone());
            }
        }
        inner.rotation.retain(|t| !emptied.contains(t));
    }

    /// Total items currently queued across tenants.
    pub fn queued(&self) -> usize {
        let inner = self.inner.lock().expect("scheduler lock");
        inner.tenants.values().map(|q| q.items.len()).sum()
    }

    /// Holds back every pop (items keep queueing) until
    /// [`resume`](Self::resume). Lets tests and maintenance windows
    /// build a backlog atomically before draining it.
    pub fn pause(&self) {
        self.inner.lock().expect("scheduler lock").paused = true;
    }

    /// Releases a [`pause`](Self::pause) and wakes blocked pops.
    pub fn resume(&self) {
        self.inner.lock().expect("scheduler lock").paused = false;
        self.available.notify_all();
    }

    /// Wakes every blocked [`pop`](Self::pop) with `None` and makes all
    /// future pops return `None`.
    pub fn stop(&self) {
        self.inner.lock().expect("scheduler lock").stopped = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(sched: &FairScheduler<u32>, n: usize) -> Vec<String> {
        (0..n)
            .map(|_| sched.try_pop().expect("item available").0)
            .collect()
    }

    #[test]
    fn equal_priorities_alternate_round_robin() {
        let s = FairScheduler::new();
        s.enqueue("a", 1, 0..3u32);
        s.enqueue("b", 1, 0..3u32);
        assert_eq!(drain_order(&s, 6), ["a", "b", "a", "b", "a", "b"]);
        assert!(s.try_pop().is_none());
    }

    #[test]
    fn priorities_weight_the_rotation() {
        let s = FairScheduler::new();
        s.enqueue("heavy", 3, 0..6u32);
        s.enqueue("light", 1, 0..2u32);
        // heavy takes 3, light 1, repeat: h h h l h h h l
        assert_eq!(
            drain_order(&s, 8),
            ["heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light"]
        );
    }

    #[test]
    fn backlogged_tenants_share_by_priority_ratio() {
        let s = FairScheduler::new();
        s.enqueue("p1", 1, 0..100u32);
        s.enqueue("p2", 2, 0..100u32);
        s.enqueue("p4", 4, 0..100u32);
        let first: Vec<String> = drain_order(&s, 70);
        let count = |t: &str| first.iter().filter(|x| x.as_str() == t).count();
        // 10 full DRR cycles of 7 units: exactly 10/20/40.
        assert_eq!((count("p1"), count("p2"), count("p4")), (10, 20, 40));
    }

    #[test]
    fn emptying_a_queue_ends_its_turn() {
        let s = FairScheduler::new();
        s.enqueue("a", 10, 0..1u32);
        s.enqueue("b", 1, 0..2u32);
        // `a` has quantum 10 but only one item; `b` proceeds right after.
        assert_eq!(drain_order(&s, 3), ["a", "b", "b"]);
    }

    #[test]
    fn reentrant_enqueue_reenters_rotation() {
        let s = FairScheduler::new();
        s.enqueue("a", 1, 0..1u32);
        assert_eq!(drain_order(&s, 1), ["a"]);
        assert!(s.try_pop().is_none());
        s.enqueue("a", 1, 5..6u32);
        assert_eq!(s.try_pop(), Some(("a".to_string(), 5)));
    }

    #[test]
    fn retain_drops_cancelled_items() {
        let s = FairScheduler::new();
        s.enqueue("a", 1, 0..4u32);
        s.enqueue("b", 1, 0..2u32);
        s.retain(|tenant, item| !(tenant == "a" && *item % 2 == 0));
        assert_eq!(s.queued(), 4);
        let mut remaining_a = Vec::new();
        while let Some((t, v)) = s.try_pop() {
            if t == "a" {
                remaining_a.push(v);
            }
        }
        assert_eq!(remaining_a, [1, 3]);
    }

    #[test]
    fn retain_that_empties_a_tenant_removes_it_from_rotation() {
        let s = FairScheduler::new();
        s.enqueue("a", 1, 0..2u32);
        s.enqueue("b", 1, 0..2u32);
        s.retain(|tenant, _| tenant != "a");
        assert_eq!(drain_order(&s, 2), ["b", "b"]);
        assert!(s.try_pop().is_none());
    }

    #[test]
    fn stop_wakes_blocked_pop() {
        let s = std::sync::Arc::new(FairScheduler::<u32>::new());
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.stop();
        assert_eq!(handle.join().expect("join"), None);
        s.enqueue("a", 1, 0..1u32);
        assert!(s.pop().is_none(), "stopped scheduler stays stopped");
    }

    #[test]
    fn pause_holds_items_back_until_resume() {
        let s = FairScheduler::new();
        s.pause();
        s.enqueue("a", 1, 0..2u32);
        assert!(s.try_pop().is_none(), "paused scheduler yields nothing");
        assert_eq!(s.queued(), 2, "items keep queueing while paused");
        s.resume();
        assert_eq!(drain_order(&s, 2), ["a", "a"]);
    }

    #[test]
    fn resume_wakes_blocked_pop() {
        let s = std::sync::Arc::new(FairScheduler::<u32>::new());
        s.pause();
        s.enqueue("a", 1, 0..1u32);
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.resume();
        assert_eq!(handle.join().expect("join"), Some(("a".to_string(), 0)));
    }

    #[test]
    fn priorities_are_clamped() {
        let s = FairScheduler::new();
        s.enqueue("a", 0, 0..5u32);
        s.enqueue("b", 99, 0..5u32);
        // a at clamped 1, b at clamped 10: b takes 5 (queue empties), a 1…
        let order = drain_order(&s, 10);
        assert_eq!(order.iter().filter(|t| t.as_str() == "b").count(), 5);
    }
}
