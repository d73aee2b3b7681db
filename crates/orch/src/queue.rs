//! Persistent job queue for the injection service, layered on the store
//! directory.
//!
//! The queue is an append-only event log (`<store>/queue/events.jsonl`)
//! sharing the CRC'd [`CheckedLog`](crate::store) machinery with the
//! shard and trace stores: every state change appends one checksummed
//! line, the current job table is a pure fold over the log, and a torn
//! trailing line (killed daemon) is healed on open exactly like a torn
//! shard. Nothing is ever rewritten in place, so a queue that survived a
//! `kill -9` replays to exactly the state its last completed append
//! described.
//!
//! Recovery contract: a job observed in `Running` state at daemon
//! startup was owned by a dead incarnation; [`JobQueue::recover`]
//! re-queues it. This is always safe — shards the dead daemon persisted
//! are reused via the content-addressed store, and the deterministic
//! scheduler re-runs only what is missing.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use vulfi::StudySpec;

use crate::key::StudyKey;
use crate::store::{CheckedLog, StudyFsck};
use crate::OrchError;

/// Lifecycle states of a submitted study job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobState {
    /// Waiting for workers.
    Queued,
    /// Workers are executing (or a dead daemon never finished — see
    /// [`JobQueue::recover`]).
    Running,
    Completed,
    Failed,
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
        }
    }
}

/// One checksummed line of the queue log.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct QueueEvent {
    job: u64,
    kind: EventKind,
    /// Full spec (on `Submitted` events only).
    spec: Option<StudySpec>,
    /// Content-addressed study key (on `Started` events, once the
    /// worker has compiled the workload and derived it).
    key: Option<String>,
    /// Failure reason (on `Failed` events).
    error: Option<String>,
    /// Submitting tenant (on `Submitted` events; informational).
    tenant: Option<String>,
    /// Wall-clock milliseconds since the Unix epoch (informational).
    unix_ms: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
enum EventKind {
    Submitted,
    Started,
    Completed,
    Failed,
    /// A dead daemon's `Running` job pushed back to `Queued`.
    Requeued,
}

/// Folded view of one job.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobRecord {
    pub id: u64,
    pub spec: StudySpec,
    pub state: JobState,
    /// Known once a worker has started (and on completed/failed jobs).
    pub key: Option<String>,
    pub error: Option<String>,
    pub tenant: Option<String>,
    pub submitted_unix_ms: u64,
    pub updated_unix_ms: u64,
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The persistent queue. Stateless over its log: every mutation is one
/// durable append, every read is a replay (the log stays small — a
/// handful of events per job). Callers serialize access (the daemon
/// holds it under a mutex).
pub struct JobQueue {
    log: CheckedLog,
}

impl JobQueue {
    /// Open (creating if needed) the queue under `store_root/queue`,
    /// healing a torn tail left by a killed daemon. Mid-file corruption
    /// does not make the queue unopenable — [`JobQueue::fsck`] repairs
    /// through this same handle — but every read stays loud and names
    /// `vulfi store fsck --repair`.
    pub fn open(store_root: impl AsRef<Path>) -> Result<JobQueue, OrchError> {
        let dir = store_root.as_ref().join("queue");
        std::fs::create_dir_all(&dir)
            .map_err(|e| OrchError(format!("create {}: {e}", dir.display())))?;
        let q = JobQueue {
            log: CheckedLog::new(
                dir.join("events.jsonl"),
                dir.join("events.quarantine"),
                "vulfi store fsck --repair",
            ),
        };
        let _ = q.log.trim_torn_tail::<QueueEvent>();
        Ok(q)
    }

    /// Check the queue log; with `repair`, quarantine a damaged log and
    /// salvage every checksum-valid event into a fresh one. Jobs keep
    /// the last state their surviving events give them: a job left
    /// `Running` is re-queued by [`JobQueue::recover`] when the daemon
    /// next starts, and its study resumes from the shards already
    /// stored. A job whose `Submitted` event was lost is gone and must
    /// be resubmitted.
    pub fn fsck(&self, repair: bool) -> Result<StudyFsck, OrchError> {
        self.log
            .fsck::<QueueEvent>(StudyKey("queue".to_string()), repair)
    }

    pub fn path(&self) -> PathBuf {
        self.log_path()
    }

    fn log_path(&self) -> PathBuf {
        // CheckedLog keeps its path private; reconstructing it here
        // would duplicate knowledge, so expose via the log itself.
        self.log.path().to_path_buf()
    }

    /// Durably enqueue `spec` under its content-addressed study key;
    /// returns the new job id.
    pub fn submit(
        &self,
        spec: &StudySpec,
        key: &str,
        tenant: Option<&str>,
    ) -> Result<u64, OrchError> {
        let id = self.next_id()?;
        self.append(QueueEvent {
            job: id,
            kind: EventKind::Submitted,
            spec: Some(spec.clone()),
            key: Some(key.to_string()),
            error: None,
            tenant: tenant.map(str::to_string),
            unix_ms: now_unix_ms(),
        })?;
        Ok(id)
    }

    /// A worker began executing `job` under the given study key.
    pub fn started(&self, job: u64, key: &str) -> Result<(), OrchError> {
        self.append_kind(job, EventKind::Started, Some(key.to_string()), None)
    }

    pub fn completed(&self, job: u64) -> Result<(), OrchError> {
        self.append_kind(job, EventKind::Completed, None, None)
    }

    pub fn failed(&self, job: u64, error: &str) -> Result<(), OrchError> {
        self.append_kind(job, EventKind::Failed, None, Some(error.to_string()))
    }

    /// Re-queue every `Running` job (dead-daemon recovery). Returns the
    /// ids pushed back to `Queued`.
    pub fn recover(&self) -> Result<Vec<u64>, OrchError> {
        let orphans: Vec<u64> = self
            .jobs()?
            .into_iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        for &id in &orphans {
            self.append_kind(id, EventKind::Requeued, None, None)?;
        }
        Ok(orphans)
    }

    /// The folded job table, in submission order.
    pub fn jobs(&self) -> Result<Vec<JobRecord>, OrchError> {
        let events: Vec<QueueEvent> = self.log.records()?;
        let mut jobs: Vec<JobRecord> = Vec::new();
        for ev in events {
            match ev.kind {
                EventKind::Submitted => {
                    let Some(spec) = ev.spec else { continue };
                    jobs.push(JobRecord {
                        id: ev.job,
                        spec,
                        state: JobState::Queued,
                        key: ev.key,
                        error: None,
                        tenant: ev.tenant,
                        submitted_unix_ms: ev.unix_ms,
                        updated_unix_ms: ev.unix_ms,
                    });
                }
                kind => {
                    let Some(job) = jobs.iter_mut().find(|j| j.id == ev.job) else {
                        continue;
                    };
                    job.updated_unix_ms = ev.unix_ms;
                    match kind {
                        EventKind::Started => {
                            job.state = JobState::Running;
                            if ev.key.is_some() {
                                job.key = ev.key;
                            }
                        }
                        EventKind::Completed => job.state = JobState::Completed,
                        EventKind::Failed => {
                            job.state = JobState::Failed;
                            job.error = ev.error;
                        }
                        EventKind::Requeued => job.state = JobState::Queued,
                        EventKind::Submitted => unreachable!("handled above"),
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// Oldest queued job, if any.
    pub fn next_queued(&self) -> Result<Option<JobRecord>, OrchError> {
        Ok(self
            .jobs()?
            .into_iter()
            .find(|j| j.state == JobState::Queued))
    }

    fn next_id(&self) -> Result<u64, OrchError> {
        Ok(self.jobs()?.iter().map(|j| j.id + 1).max().unwrap_or(1))
    }

    fn append_kind(
        &self,
        job: u64,
        kind: EventKind,
        key: Option<String>,
        error: Option<String>,
    ) -> Result<(), OrchError> {
        self.append(QueueEvent {
            job,
            kind,
            spec: None,
            key,
            error,
            tenant: None,
            unix_ms: now_unix_ms(),
        })
    }

    fn append(&self, ev: QueueEvent) -> Result<(), OrchError> {
        self.log.append(&ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulfi_queue_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(bench: &str) -> StudySpec {
        StudySpec {
            bench: bench.to_string(),
            ..StudySpec::default()
        }
    }

    #[test]
    fn submit_run_complete_lifecycle() {
        let root = temp_root("lifecycle");
        let q = JobQueue::open(&root).unwrap();
        assert!(q.jobs().unwrap().is_empty());
        assert!(q.next_queued().unwrap().is_none());

        let a = q
            .submit(&spec("vector sum"), "aaaa", Some("alice"))
            .unwrap();
        let b = q.submit(&spec("dot product"), "bbbb", Some("bob")).unwrap();
        assert_ne!(a, b);
        assert_eq!(q.next_queued().unwrap().unwrap().id, a, "FIFO");

        q.started(a, "deadbeef").unwrap();
        assert_eq!(q.next_queued().unwrap().unwrap().id, b);
        q.completed(a).unwrap();
        q.started(b, "cafef00d").unwrap();
        q.failed(b, "boom").unwrap();

        let jobs = q.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].state, JobState::Completed);
        assert_eq!(jobs[0].key.as_deref(), Some("deadbeef"));
        assert_eq!(jobs[0].tenant.as_deref(), Some("alice"));
        assert_eq!(jobs[1].state, JobState::Failed);
        assert_eq!(jobs[1].error.as_deref(), Some("boom"));
    }

    #[test]
    fn queue_survives_reopen_and_recovers_orphans() {
        let root = temp_root("reopen");
        let id = {
            let q = JobQueue::open(&root).unwrap();
            let id = q.submit(&spec("vector sum"), "deadbeef", None).unwrap();
            q.started(id, "deadbeef").unwrap();
            id
        };
        // "Daemon restart": the running job must be re-queued, with its
        // spec intact.
        let q = JobQueue::open(&root).unwrap();
        assert_eq!(q.recover().unwrap(), vec![id]);
        let job = q.next_queued().unwrap().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(job.spec.bench, "vector sum");
        // Ids keep advancing after a reopen.
        let next = q.submit(&spec("dot product"), "cafef00d", None).unwrap();
        assert!(next > id);
        // Recovery is idempotent: nothing running now.
        assert!(q.recover().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_healed_on_open() {
        let root = temp_root("torn");
        let path = {
            let q = JobQueue::open(&root).unwrap();
            q.submit(&spec("vector sum"), "deadbeef", None).unwrap();
            q.path()
        };
        // Simulate a killed writer: append half a line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"job\":2,\"kind\":\"Subm");
        std::fs::write(&path, &bytes).unwrap();

        let q = JobQueue::open(&root).unwrap();
        let jobs = q.jobs().unwrap();
        assert_eq!(jobs.len(), 1, "torn event dropped, intact one kept");
        assert_eq!(jobs[0].spec.bench, "vector sum");
    }
}
