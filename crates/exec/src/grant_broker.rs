//! Memory-grant admission control.
//!
//! SQL Server's resource semaphore admits a query only once its requested
//! workspace memory fits in the shared grant budget; waiters queue FIFO and
//! either time out or are admitted with a *reduced* grant that forces the
//! operators to spill. Under concurrency this wait — not CPU — dominates
//! tail latency in the paper's §3.4/§3.6 experiments. [`GrantBroker`] is
//! that semaphore: queries [`GrantBroker::acquire`] their optimizer-estimated
//! grant up front and hold a [`GrantLease`] for the whole execution; the
//! lease's embedded [`MemoryGrant`] is what the spilling operators reserve
//! against, so a reduced admission flows straight into the existing spill
//! path instead of failing the query.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hpd_common::{faults, HpdError, Result};
use hpd_obs::{Counter, Histogram};
use parking_lot::{Condvar, Mutex};

use crate::memory::MemoryGrant;

/// Histogram of microseconds queries spent waiting for admission.
pub const GRANT_WAIT_US: &str = "sched.grant.wait_us";
/// Histogram of queue depth (waiters including self) sampled at enqueue.
pub const GRANT_QUEUE_DEPTH: &str = "sched.grant.queue_depth";
/// Queries admitted (full or reduced grant).
pub const GRANT_ADMITTED: &str = "sched.grant.admitted";
/// Queries admitted with less memory than they requested.
pub const GRANT_REDUCED: &str = "sched.grant.reduced";
/// Queries that gave up waiting (includes fault-injected timeouts).
pub const GRANT_TIMEOUTS: &str = "sched.grant.timeouts";

/// FIFO admission controller over one shared memory budget.
/// Cloning shares the budget and the queue.
#[derive(Clone)]
pub struct GrantBroker {
    inner: Arc<BrokerInner>,
}

struct BrokerInner {
    budget: usize,
    /// Smallest grant worth admitting with; below this a waiter times out
    /// rather than being handed a uselessly tiny reduced grant.
    min_grant: usize,
    state: Mutex<BrokerState>,
    cv: Condvar,
    peak_reserved: AtomicUsize,
    wait_us: Histogram,
    queue_depth: Histogram,
    admitted: Counter,
    reduced: Counter,
    timeouts: Counter,
}

struct BrokerState {
    reserved: usize,
    /// Tickets of queries waiting for admission, front = next to admit.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

impl std::fmt::Debug for GrantBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrantBroker")
            .field("budget", &self.inner.budget)
            .field("reserved", &self.reserved_bytes())
            .finish()
    }
}

impl GrantBroker {
    /// A broker over `budget` bytes of total workspace memory. Waiters at
    /// their deadline accept any reduced grant of at least
    /// `min_grant.min(requested)` bytes instead of failing.
    pub fn new(budget: usize, min_grant: usize) -> GrantBroker {
        let reg = hpd_obs::global();
        GrantBroker {
            inner: Arc::new(BrokerInner {
                budget,
                min_grant: min_grant.max(1),
                state: Mutex::new(BrokerState {
                    reserved: 0,
                    queue: VecDeque::new(),
                    next_ticket: 0,
                }),
                cv: Condvar::new(),
                peak_reserved: AtomicUsize::new(0),
                wait_us: reg.histogram(GRANT_WAIT_US),
                queue_depth: reg.histogram(GRANT_QUEUE_DEPTH),
                admitted: reg.counter(GRANT_ADMITTED),
                reduced: reg.counter(GRANT_REDUCED),
                timeouts: reg.counter(GRANT_TIMEOUTS),
            }),
        }
    }

    pub fn reserved_bytes(&self) -> usize {
        self.inner.state.lock().reserved
    }

    /// High-water mark of simultaneously reserved bytes — asserted against
    /// the configured budget by the concurrency bench.
    pub fn peak_reserved_bytes(&self) -> usize {
        self.inner.peak_reserved.load(Ordering::Relaxed)
    }

    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Admission-control a query asking for `requested` bytes of workspace
    /// memory. Blocks FIFO behind earlier waiters until the grant fits; at
    /// `timeout` the head waiter takes whatever is free (a reduced grant, at
    /// least `min_grant`) or fails with [`HpdError::GrantWaitTimeout`].
    ///
    /// Requests larger than the whole budget are admitted with the budget
    /// itself — an up-front reduction, mirroring the server clamping a grant
    /// to the resource pool size.
    pub fn acquire(&self, requested: usize, timeout: Duration) -> Result<GrantLease> {
        let start = Instant::now();
        if faults::fire(faults::sites::GRANT_TIMEOUT) {
            self.inner.timeouts.inc();
            return Err(HpdError::GrantWaitTimeout {
                requested,
                waited_ms: timeout.as_millis() as u64,
            });
        }
        let req = requested.clamp(1, self.inner.budget);
        let deadline = start + timeout;

        let inner = &*self.inner;
        let mut st = inner.state.lock();
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        inner.queue_depth.record(st.queue.len() as u64);

        loop {
            if st.queue.front() == Some(&ticket) {
                let available = inner.budget - st.reserved;
                if available >= req {
                    return Ok(self.admit(st, ticket, req, requested, start, false));
                }
                if Instant::now() >= deadline {
                    // Head-of-queue at the deadline: take a reduced grant if
                    // anything useful is free, otherwise give up.
                    let floor = inner.min_grant.min(req);
                    if available >= floor {
                        return Ok(self.admit(
                            st,
                            ticket,
                            available.min(req),
                            requested,
                            start,
                            true,
                        ));
                    }
                }
            }
            if Instant::now() >= deadline {
                st.queue.retain(|t| *t != ticket);
                drop(st);
                // The queue head may have changed; wake the new head.
                inner.cv.notify_all();
                inner.timeouts.inc();
                inner.wait_us.record(start.elapsed().as_micros() as u64);
                return Err(HpdError::GrantWaitTimeout {
                    requested,
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            inner.cv.wait_until(&mut st, deadline);
        }
    }

    fn admit(
        &self,
        mut st: parking_lot::MutexGuard<'_, BrokerState>,
        ticket: u64,
        granted: usize,
        requested: usize,
        start: Instant,
        is_reduced: bool,
    ) -> GrantLease {
        debug_assert_eq!(st.queue.front(), Some(&ticket));
        st.queue.pop_front();
        st.reserved += granted;
        let reserved = st.reserved;
        drop(st);
        let inner = &*self.inner;
        inner.peak_reserved.fetch_max(reserved, Ordering::Relaxed);
        // Admitting one waiter can unblock the next (e.g. it wanted less).
        inner.cv.notify_all();
        inner.admitted.inc();
        if is_reduced || granted < requested {
            inner.reduced.inc();
        }
        let wait = start.elapsed();
        inner.wait_us.record(wait.as_micros() as u64);
        GrantLease {
            broker: Arc::clone(&self.inner),
            grant: MemoryGrant::new(granted),
            granted,
            requested,
            wait,
        }
    }
}

/// An admitted query's hold on broker memory, released on drop. The
/// embedded [`MemoryGrant`] is sized to the *granted* bytes, so a reduced
/// admission makes the operators spill exactly as an undersized per-query
/// grant always did.
pub struct GrantLease {
    broker: Arc<BrokerInner>,
    grant: MemoryGrant,
    granted: usize,
    requested: usize,
    wait: Duration,
}

impl std::fmt::Debug for GrantLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrantLease")
            .field("granted", &self.granted)
            .field("requested", &self.requested)
            .field("wait", &self.wait)
            .finish()
    }
}

impl GrantLease {
    pub fn granted_bytes(&self) -> usize {
        self.granted
    }

    pub fn requested_bytes(&self) -> usize {
        self.requested
    }

    /// True when the broker admitted this query with less memory than the
    /// optimizer asked for.
    pub fn is_reduced(&self) -> bool {
        self.granted < self.requested
    }

    /// How long this query waited in the admission queue.
    pub fn wait(&self) -> Duration {
        self.wait
    }

    /// The per-query working-memory budget operators reserve against.
    pub fn grant(&self) -> MemoryGrant {
        self.grant.clone()
    }
}

impl Drop for GrantLease {
    fn drop(&mut self) {
        let mut st = self.broker.state.lock();
        debug_assert!(st.reserved >= self.granted);
        st.reserved -= self.granted;
        drop(st);
        self.broker.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn full_grant_when_budget_free() {
        let b = GrantBroker::new(1000, 10);
        let lease = b.acquire(400, ms(10)).unwrap();
        assert_eq!(lease.granted_bytes(), 400);
        assert!(!lease.is_reduced());
        assert_eq!(b.reserved_bytes(), 400);
        drop(lease);
        assert_eq!(b.reserved_bytes(), 0);
        assert_eq!(b.peak_reserved_bytes(), 400);
    }

    #[test]
    fn oversized_request_is_clamped_to_budget() {
        let b = GrantBroker::new(1000, 10);
        let lease = b.acquire(5000, ms(10)).unwrap();
        assert_eq!(lease.granted_bytes(), 1000);
        assert!(lease.is_reduced());
    }

    #[test]
    fn waiter_times_out_when_budget_held() {
        let b = GrantBroker::new(1000, 200);
        let _hold = b.acquire(1000, ms(10)).unwrap();
        let err = b.acquire(500, ms(20)).unwrap_err();
        match err {
            HpdError::GrantWaitTimeout { requested, .. } => assert_eq!(requested, 500),
            other => panic!("expected GrantWaitTimeout, got {other:?}"),
        }
    }

    #[test]
    fn waiter_admitted_when_holder_releases() {
        let b = GrantBroker::new(1000, 10);
        let hold = b.acquire(900, ms(10)).unwrap();
        let b2 = b.clone();
        let waiter = std::thread::spawn(move || b2.acquire(800, Duration::from_secs(5)));
        while b.queue_depth() == 0 {
            std::thread::yield_now();
        }
        drop(hold);
        let lease = waiter.join().unwrap().unwrap();
        assert_eq!(lease.granted_bytes(), 800);
        assert!(!lease.is_reduced());
    }

    #[test]
    fn deadline_head_takes_reduced_grant() {
        let b = GrantBroker::new(1000, 100);
        let _hold = b.acquire(700, ms(200)).unwrap();
        // 600 never fits behind the 700 hold; at the deadline 300 bytes are
        // free, above the 100-byte floor → reduced grant.
        let lease = b.acquire(600, ms(20)).unwrap();
        assert_eq!(lease.granted_bytes(), 300);
        assert!(lease.is_reduced());
        assert_eq!(b.reserved_bytes(), 1000);
    }

    #[test]
    fn fifo_order_is_respected() {
        let b = GrantBroker::new(100, 1);
        let hold = b.acquire(100, ms(10)).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut joins = Vec::new();
        for i in 0..3u32 {
            let bt = b.clone();
            let order = Arc::clone(&order);
            joins.push(std::thread::spawn(move || {
                let lease = bt.acquire(100, Duration::from_secs(5)).unwrap();
                order.lock().push(i);
                drop(lease);
            }));
            // Stagger enqueue so ticket order is deterministic.
            while b.queue_depth() < (i + 1) as usize {
                std::thread::yield_now();
            }
        }
        drop(hold);
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(
            *order.lock(),
            vec![0, 1, 2],
            "admissions follow enqueue order"
        );
    }

    #[test]
    fn fault_site_forces_timeout() {
        faults::clear_all();
        let b = GrantBroker::new(1000, 10);
        faults::arm(faults::sites::GRANT_TIMEOUT, 1);
        let err = b.acquire(10, ms(50)).unwrap_err();
        assert!(matches!(err, HpdError::GrantWaitTimeout { .. }));
        // Charge consumed: the next acquire succeeds instantly.
        assert!(b.acquire(10, ms(50)).is_ok());
        faults::clear_all();
    }
}
