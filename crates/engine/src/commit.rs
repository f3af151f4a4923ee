//! Group commit: amortizes WAL fsyncs across concurrent sessions.
//!
//! A committing session first stages its frames into the log file
//! ([`crate::wal::Wal`]'s batch write — one `write_all`, no fsync), then
//! asks the pipeline to make them durable. The pipeline hands out
//! monotonically increasing tickets; the first waiter whose ticket is
//! not yet durable becomes the **leader**, runs one `sync_data` covering
//! every ticket issued so far, and wakes the **followers** it carried.
//! Under contention a single fsync therefore commits a whole batch of
//! sessions — the classic group-commit design (DeWitt et al. 1984), and
//! the reason the `group_commit_batches`/`group_commit_size` counters
//! satisfy "at most one fsync per batch" by construction.
//!
//! A failed fsync poisons the pipeline: the data the kernel could not
//! flush is in an unknown state, so every current and future commit
//! reports the failure instead of pretending to be durable (the same
//! reasoning behind PostgreSQL's post-fsync-error panic).

use crate::{EngineError, Result};
use jackpine_obs::EngineMetrics;
use jackpine_storage::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct PipelineState {
    /// Next ticket to hand out; ticket n is the n-th commit (1-based).
    next_ticket: u64,
    /// Highest ticket whose frames have reached stable storage.
    synced: u64,
    /// Whether a leader is currently running an fsync.
    leader_active: bool,
    /// Set once an fsync fails; all commits fail from then on.
    poisoned: Option<String>,
}

/// The group-commit pipeline. One per durable [`crate::SpatialDb`];
/// cheap to construct, all methods take `&self`.
#[derive(Debug)]
pub struct CommitPipeline {
    state: Mutex<PipelineState>,
    cv: Condvar,
}

impl Default for CommitPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl CommitPipeline {
    /// A fresh pipeline with no pending commits.
    pub fn new() -> Self {
        CommitPipeline {
            state: Mutex::new(PipelineState {
                next_ticket: 1,
                synced: 0,
                leader_active: false,
                poisoned: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Makes this session's already-written frames durable, batching the
    /// fsync with other sessions committing concurrently. `sync` is the
    /// flush operation (one `sync_data` over the shared log); only the
    /// batch leader runs it. Call with the session's frames already in
    /// the log file and **no WAL or engine locks held** — followers
    /// block until their leader's fsync completes.
    pub fn commit(
        &self,
        sync: impl Fn() -> Result<()>,
        metrics: Option<&EngineMetrics>,
    ) -> Result<()> {
        let start = Instant::now();
        // Time spent parked as a follower (leader fsync in flight),
        // separated out of `commit_wait_us` for the wait-state profiler.
        let mut follower_wait = std::time::Duration::ZERO;
        let mut followed = false;
        let mut state = self.state.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let result = loop {
            if let Some(msg) = &state.poisoned {
                break Err(EngineError::Persist(msg.clone()));
            }
            if state.synced >= ticket {
                break Ok(());
            }
            if state.leader_active {
                // A leader is flushing; it (or a successor) will wake us.
                let parked = Instant::now();
                state = self.cv.wait(state);
                follower_wait += parked.elapsed();
                followed = true;
                continue;
            }
            // Become the leader: one fsync covers every ticket issued so
            // far, because each of those sessions staged its frames
            // before asking for durability.
            state.leader_active = true;
            let flush_upto = state.next_ticket - 1;
            let already_synced = state.synced;
            drop(state);
            let flushed = sync();
            state = self.state.lock();
            state.leader_active = false;
            match flushed {
                Ok(()) => {
                    state.synced = state.synced.max(flush_upto);
                    if let Some(m) = metrics {
                        m.group_commit_batches.incr();
                        m.group_commit_size.add(flush_upto - already_synced);
                    }
                    self.cv.notify_all();
                    break Ok(());
                }
                Err(e) => {
                    let msg = format!("group commit fsync failed: {e}");
                    state.poisoned = Some(msg.clone());
                    self.cv.notify_all();
                    break Err(EngineError::Persist(msg));
                }
            }
        };
        drop(state);
        if let Some(m) = metrics {
            if followed {
                m.commit_follower_wait_us
                    .record(follower_wait.as_micros().min(u64::MAX as u128) as u64);
            }
            m.commit_wait_us.record(start.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_commit_syncs_once() {
        let p = CommitPipeline::new();
        let m = EngineMetrics::new();
        let syncs = AtomicU64::new(0);
        p.commit(
            || {
                syncs.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
            Some(&m),
        )
        .unwrap();
        assert_eq!(syncs.load(Ordering::SeqCst), 1);
        let snap = m.snapshot();
        assert_eq!(snap.counter("group_commit_batches"), 1);
        assert_eq!(snap.counter("group_commit_size"), 1);
        assert_eq!(snap.commit_wait_us.count, 1);
    }

    #[test]
    fn concurrent_commits_batch_fsyncs() {
        const SESSIONS: u64 = 16;
        let p = Arc::new(CommitPipeline::new());
        let m = Arc::new(EngineMetrics::new());
        let syncs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..SESSIONS {
                let p = p.clone();
                let m = m.clone();
                let syncs = syncs.clone();
                s.spawn(move || {
                    p.commit(
                        || {
                            // A slow fsync gives followers time to pile up.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            syncs.fetch_add(1, Ordering::SeqCst);
                            Ok(())
                        },
                        Some(&m),
                    )
                    .unwrap();
                });
            }
        });
        let snap = m.snapshot();
        // Every commit is accounted to exactly one batch, and each batch
        // ran exactly one fsync.
        assert_eq!(snap.counter("group_commit_size"), SESSIONS);
        assert_eq!(snap.counter("group_commit_batches"), syncs.load(Ordering::SeqCst));
        assert!(snap.counter("group_commit_batches") <= SESSIONS);
        assert_eq!(snap.commit_wait_us.count, SESSIONS);
    }

    #[test]
    fn followers_record_pipeline_wait() {
        let p = Arc::new(CommitPipeline::new());
        let m = Arc::new(EngineMetrics::new());
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            {
                let (p, m) = (p.clone(), m.clone());
                s.spawn(move || {
                    p.commit(
                        || {
                            release_rx.recv().unwrap();
                            Ok(())
                        },
                        Some(&m),
                    )
                    .unwrap();
                });
            }
            // Wait until the first session is mid-fsync (it blocks on the
            // channel), so the second session must enter as a follower.
            while !p.state.lock().leader_active {
                std::thread::yield_now();
            }
            {
                let (p, m) = (p.clone(), m.clone());
                s.spawn(move || p.commit(|| Ok(()), Some(&m)).unwrap());
            }
            // The follower holds the state lock from taking its ticket
            // until it parks on the condvar, so once we can observe
            // next_ticket == 3 it is provably parked.
            while p.state.lock().next_ticket != 3 {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
        });
        let snap = m.snapshot();
        assert_eq!(snap.wait("commit_follower_wait_us").count, 1, "one session followed");
        assert_eq!(snap.counter("group_commit_batches"), 2, "follower led its own batch");
        assert_eq!(snap.commit_wait_us.count, 2);
    }

    #[test]
    fn fsync_failure_poisons_the_pipeline() {
        let p = CommitPipeline::new();
        let err = p
            .commit(|| Err(EngineError::Persist("disk gone".into())), None)
            .expect_err("leader sees the failure");
        assert!(matches!(err, EngineError::Persist(_)));
        // Later commits refuse too: durability can no longer be promised.
        let err = p.commit(|| Ok(()), None).expect_err("poisoned");
        assert!(format!("{err}").contains("fsync failed"));
    }
}
