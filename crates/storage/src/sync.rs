//! Poison-free lock wrappers over `std::sync`.
//!
//! The workspace previously used `parking_lot`, whose locks have no
//! poisoning and whose `lock()`/`read()`/`write()` return guards
//! directly. These thin wrappers keep that calling convention on top of
//! the standard library (zero-dependency offline builds): a panic while
//! holding a lock does not poison it for other threads — the next
//! acquirer simply proceeds, which matches `parking_lot` semantics.

use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires the lock and reports how long acquisition blocked —
    /// the engine's wait-state profiler wraps contended locks (the
    /// writer txn lock) with this to attribute contention per site.
    /// An uncontended `try_lock` fast path keeps the common case at
    /// one atomic, with no clock reads.
    pub fn lock_timed(&self) -> (MutexGuard<'_, T>, Duration) {
        match self.0.try_lock() {
            Ok(guard) => (guard, Duration::ZERO),
            Err(std::sync::TryLockError::Poisoned(e)) => (e.into_inner(), Duration::ZERO),
            Err(std::sync::TryLockError::WouldBlock) => {
                let start = std::time::Instant::now();
                (self.lock(), start.elapsed())
            }
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose `read()`/`write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires a shared read guard, ignoring poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard, ignoring poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The write guard if no one holds the lock right now, ignoring
    /// poisoning — the buffer pool's eviction sweep must never wait for
    /// a frame that is in use.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// A condition variable whose waits ignore poisoning, pairing with
/// [`Mutex`] the way `parking_lot::Condvar` pairs with its mutex. Used
/// by the engine's group-commit pipeline for leader/follower handoff.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks until notified, re-acquiring the guard's lock.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until notified or `dur` elapses. Returns the guard and
    /// whether the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, timeout) = self.0.wait_timeout(guard, dur).unwrap_or_else(|e| e.into_inner());
        (guard, timeout.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_exclusive_access() {
        let m = Mutex::new(0);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn lock_timed_uncontended_reports_zero_wait() {
        let m = Mutex::new(3);
        let (guard, waited) = m.lock_timed();
        assert_eq!(*guard, 3);
        assert_eq!(waited, Duration::ZERO);
    }

    #[test]
    fn lock_timed_contended_reports_nonzero_wait() {
        // Retry the whole race until the waiter demonstrably blocked:
        // scheduling can let the waiter in after the drop, in which case
        // the fast path correctly reports zero and we try again.
        for _ in 0..100 {
            let m = std::sync::Arc::new(Mutex::new(0));
            let m2 = m.clone();
            let (tx, rx) = std::sync::mpsc::channel();
            let g = m.lock();
            let t = std::thread::spawn(move || {
                tx.send(()).unwrap();
                let (mut g, waited) = m2.lock_timed();
                *g += 1;
                waited
            });
            rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(10));
            drop(g);
            let waited = t.join().unwrap();
            assert_eq!(*m.lock(), 1);
            if waited > Duration::ZERO {
                return;
            }
        }
        panic!("waiter never observed a blocked acquisition in 100 attempts");
    }

    #[test]
    fn rwlock_read_and_write() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn survives_poisoning_panic() {
        let m = std::sync::Arc::new(Mutex::new(1));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: the lock is still usable afterwards.
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_notifies_waiter() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_expires() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let (_g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
    }
}
