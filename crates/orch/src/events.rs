//! The store's journal: the one job log of the injection service.
//!
//! One append-only, CRC-checksummed JSONL stream
//! (`<store>/events/ops.jsonl`, sharing the [`CheckedLog`] machinery
//! with the shard, trace and telemetry logs) records everything the
//! service did and when. Every event carries its correlation IDs (job
//! id, study key, worker id, shard range), so the full submit → lease →
//! shards → merge lifecycle of any job can be reconstructed from the
//! log alone (`vulfi events summarize`), long after the daemon is gone.
//!
//! The same stream is the job queue. Five kinds move a job between
//! states — `Submitted` (carrying the spec), `Started`, `Requeued`,
//! `Completed`, `Failed` — and the job table is a pure fold over the
//! log: one `OpsSummary::apply` per event, used both by
//! [`summarize_events`] and by the daemon's [`Journal`]. The journal
//! folds the log **once**, on open, keeps the table in memory, and
//! applies each event it appends after the line is durable, so the
//! live table always equals what a fresh open replays. The other kinds
//! (lease grants, shard completions, merges, engine faults, fsck and
//! alert transitions) only add counters to the table.
//!
//! A torn trailing line (killed daemon) is healed on open like a torn
//! shard. Mid-file corruption is loud: [`Journal::open`] refuses it
//! with an error naming `vulfi store fsck --repair`, which quarantines
//! the log and salvages every checksum-valid event. A job left
//! `Running` by a dead daemon is re-queued by [`Journal::recover`];
//! this is always safe, because its stored shards are reused and only
//! the missing ones re-run. Job ids are never reused: the next id is
//! one past the largest id on any surviving event, so a job whose
//! `Submitted` line was lost cannot lend its id to a new one.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use vulfi::StudySpec;

use crate::key::StudyKey;
use crate::store::{CheckedLog, StudyFsck};
use crate::OrchError;

/// What happened. Unit variants only — everything else is correlation
/// payload on [`OpsEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum OpsKind {
    /// A study was submitted (job, key, spec; tenant in `detail`).
    Submitted,
    /// The daemon promoted the job to the active study.
    Started,
    /// A worker leased a shard range.
    LeaseGranted,
    /// A dead daemon's running job went back to the queue.
    Requeued,
    /// A worker durably appended one executed shard (`wall_ns` is the
    /// shard's execution time).
    ShardDone,
    /// All shards landed and merged into the study result.
    Merged,
    Completed,
    Failed,
    /// An fsck pass ran (`detail` says what it found/repaired).
    Fsck,
    /// An engine panic was absorbed during this study.
    EngineFault,
    /// An alert rule's sustained violation crossed into firing
    /// (`detail` names the rule and the offending value).
    AlertFiring,
    /// A firing alert rule's series recovered.
    AlertResolved,
}

impl OpsKind {
    pub fn name(&self) -> &'static str {
        match self {
            OpsKind::Submitted => "submitted",
            OpsKind::Started => "started",
            OpsKind::LeaseGranted => "lease-granted",
            OpsKind::Requeued => "requeued",
            OpsKind::ShardDone => "shard-done",
            OpsKind::Merged => "merged",
            OpsKind::Completed => "completed",
            OpsKind::Failed => "failed",
            OpsKind::Fsck => "fsck",
            OpsKind::EngineFault => "engine-fault",
            OpsKind::AlertFiring => "alert-firing",
            OpsKind::AlertResolved => "alert-resolved",
        }
    }
}

/// One checksummed line of the journal. Correlation fields are optional
/// because not every event has every coordinate; an event carries all
/// the IDs known at its emit site.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct OpsEvent {
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    pub kind: OpsKind,
    /// Job id.
    pub job: Option<u64>,
    /// Content-addressed study key.
    pub key: Option<String>,
    /// Worker id (`w0`, `w1`, …) within its daemon.
    pub worker: Option<String>,
    /// Shard coordinates (`ShardDone` / `LeaseGranted`).
    pub campaign: Option<u64>,
    pub start: Option<u64>,
    pub end: Option<u64>,
    /// Event duration where one is meaningful: shard execution time on
    /// `ShardDone`, queue wait on `Started`.
    pub wall_ns: Option<u64>,
    /// Free-form context (tenant, error text, fsck findings).
    pub detail: Option<String>,
    /// The submitted study (on `Submitted` events only).
    pub spec: Option<StudySpec>,
}

impl OpsEvent {
    pub fn new(kind: OpsKind) -> OpsEvent {
        OpsEvent {
            unix_ms: now_unix_ms(),
            kind,
            job: None,
            key: None,
            worker: None,
            campaign: None,
            start: None,
            end: None,
            wall_ns: None,
            detail: None,
            spec: None,
        }
    }

    pub fn job(mut self, id: u64) -> OpsEvent {
        self.job = Some(id);
        self
    }

    pub fn key(mut self, key: &str) -> OpsEvent {
        self.key = Some(key.to_string());
        self
    }

    pub fn worker(mut self, worker: &str) -> OpsEvent {
        self.worker = Some(worker.to_string());
        self
    }

    pub fn shard(mut self, campaign: u64, start: u64, end: u64) -> OpsEvent {
        self.campaign = Some(campaign);
        self.start = Some(start);
        self.end = Some(end);
        self
    }

    pub fn wall_ns(mut self, ns: u64) -> OpsEvent {
        self.wall_ns = Some(ns);
        self
    }

    pub fn detail(mut self, detail: impl Into<String>) -> OpsEvent {
        self.detail = Some(detail.into());
        self
    }

    pub fn spec(mut self, spec: &StudySpec) -> OpsEvent {
        self.spec = Some(spec.clone());
        self
    }

    /// One human-readable line (for `vulfi events tail`).
    pub fn render_line(&self) -> String {
        let mut s = format!("{:>13}  {:13}", self.unix_ms, self.kind.name());
        if let Some(j) = self.job {
            s.push_str(&format!("  job {j}"));
        }
        if let Some(k) = &self.key {
            s.push_str(&format!("  {}", &k[..12.min(k.len())]));
        }
        if let Some(w) = &self.worker {
            s.push_str(&format!("  {w}"));
        }
        if let (Some(c), Some(a), Some(b)) = (self.campaign, self.start, self.end) {
            s.push_str(&format!("  shard {c}:{a}..{b}"));
        }
        if let Some(ns) = self.wall_ns {
            s.push_str(&format!("  {:.2}ms", ns as f64 / 1e6));
        }
        if let Some(d) = &self.detail {
            s.push_str(&format!("  ({d})"));
        }
        s
    }
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The raw journal file, layered on a store directory. Readers that only
/// look ([`OpsLog::events`], `vulfi events tail`) use it directly; the
/// daemon goes through [`Journal`].
pub struct OpsLog {
    log: CheckedLog,
}

impl OpsLog {
    /// Open (creating if needed) the log under `store_root/events`,
    /// healing a torn tail left by a killed daemon. Mid-file corruption
    /// does not make the log unopenable — fsck repairs through this same
    /// handle — but every read stays loud and names
    /// `vulfi store fsck --repair`.
    pub fn open(store_root: impl AsRef<Path>) -> Result<OpsLog, OrchError> {
        let dir = store_root.as_ref().join("events");
        std::fs::create_dir_all(&dir)
            .map_err(|e| OrchError(format!("create {}: {e}", dir.display())))?;
        let log = OpsLog {
            log: CheckedLog::new(
                dir.join("ops.jsonl"),
                dir.join("ops.quarantine"),
                "vulfi store fsck --repair",
            ),
        };
        let _ = log.log.trim_torn_tail::<OpsEvent>();
        Ok(log)
    }

    pub fn path(&self) -> PathBuf {
        self.log.path().to_path_buf()
    }

    /// Durably append one event.
    pub fn append(&self, ev: &OpsEvent) -> Result<(), OrchError> {
        self.log.append(ev)
    }

    /// Every event, oldest first.
    pub fn events(&self) -> Result<Vec<OpsEvent>, OrchError> {
        self.log.records()
    }

    /// The most recent `n` events, oldest of them first.
    pub fn tail(&self, n: usize) -> Result<Vec<OpsEvent>, OrchError> {
        let mut evs = self.events()?;
        let skip = evs.len().saturating_sub(n);
        Ok(evs.split_off(skip))
    }

    /// Check the journal; with `repair`, quarantine a damaged log and
    /// salvage every checksum-valid event into a fresh one. Jobs keep
    /// the last state their surviving events give them.
    pub fn fsck(&self, repair: bool) -> Result<StudyFsck, OrchError> {
        self.log
            .fsck::<OpsEvent>(StudyKey("journal".to_string()), repair)
    }
}

/// Lifecycle states of a submitted study job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum JobState {
    /// Waiting for workers.
    #[default]
    Queued,
    /// Workers are executing (or a dead daemon never finished — see
    /// [`Journal::recover`]).
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

/// One job, folded from its events.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobRecord {
    pub id: u64,
    /// The submitted study; `None` when the job's `Submitted` event is
    /// missing (a salvaged journal), and such a job fails at promotion.
    pub spec: Option<StudySpec>,
    pub state: JobState,
    pub key: Option<String>,
    pub tenant: Option<String>,
    pub error: Option<String>,
    pub submitted_unix_ms: u64,
    /// Time of the job's latest event.
    pub updated_unix_ms: u64,
    pub finished_unix_ms: Option<u64>,
    /// Queue wait (submit → start), when both events are present.
    pub queue_wait_ms: Option<u64>,
    pub leases: u64,
    pub requeues: u64,
    pub shards: u64,
    /// Experiments covered by this job's `ShardDone` events.
    pub experiments: u64,
    /// Total shard execution time (sum of `ShardDone.wall_ns`).
    pub shard_wall_ns: u64,
    /// Distinct workers that executed shards for this job.
    pub workers: Vec<String>,
    pub engine_faults: u64,
    pub merged: bool,
}

/// The folded journal: the job table, in order of each job's first
/// event, plus the store-wide counters.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OpsSummary {
    pub events: u64,
    pub jobs: Vec<JobRecord>,
    /// Fsck events are store-wide, not per-job.
    pub fsck_actions: u64,
    /// Alert firing/resolved transitions (store-wide, like fsck).
    pub alert_transitions: u64,
}

/// Pure fold: the summary is a function of the event list, nothing else.
pub fn summarize_events(events: &[OpsEvent]) -> OpsSummary {
    let mut table = OpsSummary::default();
    for ev in events {
        table.apply(ev);
    }
    table
}

impl OpsSummary {
    /// Fold one event into the table — the one transition function, used
    /// by the open-time replay and by every live append alike.
    pub(crate) fn apply(&mut self, ev: &OpsEvent) {
        self.events += 1;
        match ev.kind {
            OpsKind::Fsck => self.fsck_actions += 1,
            OpsKind::AlertFiring | OpsKind::AlertResolved => self.alert_transitions += 1,
            _ => {}
        }
        let Some(id) = ev.job else { return };
        // Events land in job order, so the job is almost always near the end.
        let job = match self.jobs.iter().rposition(|j| j.id == id) {
            Some(i) => &mut self.jobs[i],
            None => {
                self.jobs.push(JobRecord {
                    id,
                    submitted_unix_ms: ev.unix_ms,
                    ..JobRecord::default()
                });
                self.jobs.last_mut().expect("just pushed")
            }
        };
        job.updated_unix_ms = ev.unix_ms;
        if job.key.is_none() {
            job.key = ev.key.clone();
        }
        match ev.kind {
            OpsKind::Submitted => {
                job.submitted_unix_ms = ev.unix_ms;
                job.tenant = ev.detail.clone();
                job.spec = ev.spec.clone();
            }
            OpsKind::Started => {
                job.state = JobState::Running;
                job.queue_wait_ms = Some(ev.unix_ms.saturating_sub(job.submitted_unix_ms));
            }
            OpsKind::Requeued => {
                job.state = JobState::Queued;
                job.requeues += 1;
            }
            OpsKind::Completed => {
                job.state = JobState::Completed;
                job.finished_unix_ms = Some(ev.unix_ms);
            }
            OpsKind::Failed => {
                job.state = JobState::Failed;
                job.error = ev.detail.clone();
                job.finished_unix_ms = Some(ev.unix_ms);
            }
            OpsKind::LeaseGranted => job.leases += 1,
            OpsKind::ShardDone => {
                job.shards += 1;
                if let (Some(s), Some(e)) = (ev.start, ev.end) {
                    job.experiments += e.saturating_sub(s);
                }
                job.shard_wall_ns += ev.wall_ns.unwrap_or(0);
                if let Some(w) = &ev.worker {
                    if !job.workers.contains(w) {
                        job.workers.push(w.clone());
                    }
                }
            }
            OpsKind::Merged => job.merged = true,
            OpsKind::EngineFault => job.engine_faults += 1,
            OpsKind::Fsck | OpsKind::AlertFiring | OpsKind::AlertResolved => {}
        }
    }

    pub fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.iter().rev().find(|j| j.id == id)
    }

    /// Oldest queued job, if any.
    pub fn next_queued(&self) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.state == JobState::Queued)
    }

    /// One past the largest job id on any event, so no id is ever
    /// handed out twice — not even one whose `Submitted` line was lost.
    fn next_id(&self) -> u64 {
        self.jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1
    }

    /// Distinct workers across every job.
    pub fn workers(&self) -> Vec<String> {
        let set: BTreeSet<&String> = self.jobs.iter().flat_map(|j| &j.workers).collect();
        set.into_iter().cloned().collect()
    }
}

/// The daemon's handle on the journal: the log plus its folded table,
/// replayed once on open and kept current by every append. Callers
/// serialize access (the daemon holds it under one mutex).
pub struct Journal {
    log: OpsLog,
    table: OpsSummary,
}

impl Journal {
    /// Open the journal under `store_root` and fold it into the job
    /// table. A torn tail is healed; mid-file corruption is an error
    /// naming `vulfi store fsck --repair`.
    pub fn open(store_root: impl AsRef<Path>) -> Result<Journal, OrchError> {
        let log = OpsLog::open(store_root)?;
        let table = summarize_events(&log.events()?);
        Ok(Journal { log, table })
    }

    pub fn table(&self) -> &OpsSummary {
        &self.table
    }

    /// Every event on disk, oldest first (a file read, not the table).
    pub fn events(&self) -> Result<Vec<OpsEvent>, OrchError> {
        self.log.events()
    }

    pub fn path(&self) -> PathBuf {
        self.log.path()
    }

    /// Durably append `ev`, then fold it into the table. A failed append
    /// leaves the table untouched, so it never runs ahead of the log.
    pub fn append(&mut self, ev: OpsEvent) -> Result<(), OrchError> {
        self.log.append(&ev)?;
        self.table.apply(&ev);
        Ok(())
    }

    /// Durably enqueue `spec` under its content-addressed study key;
    /// returns the new job id.
    pub fn submit(
        &mut self,
        spec: &StudySpec,
        key: &str,
        tenant: Option<&str>,
    ) -> Result<u64, OrchError> {
        let id = self.table.next_id();
        let mut ev = OpsEvent::new(OpsKind::Submitted)
            .job(id)
            .key(key)
            .spec(spec);
        ev.detail = tenant.map(str::to_string);
        self.append(ev)?;
        Ok(id)
    }

    /// A worker picked `job` up; returns its queue wait in nanoseconds.
    pub fn started(&mut self, job: u64) -> Result<u64, OrchError> {
        let ev = self.lifecycle(job, OpsKind::Started);
        let submitted = self
            .table
            .job(job)
            .map_or(ev.unix_ms, |j| j.submitted_unix_ms);
        let wait_ns = ev
            .unix_ms
            .saturating_sub(submitted)
            .saturating_mul(1_000_000);
        self.append(ev.wall_ns(wait_ns))?;
        Ok(wait_ns)
    }

    pub fn completed(&mut self, job: u64) -> Result<(), OrchError> {
        let ev = self.lifecycle(job, OpsKind::Completed);
        self.append(ev)
    }

    pub fn failed(&mut self, job: u64, error: &str) -> Result<(), OrchError> {
        let ev = self.lifecycle(job, OpsKind::Failed).detail(error);
        self.append(ev)
    }

    /// Re-queue every `Running` job (dead-daemon recovery). Returns the
    /// ids pushed back to `Queued`.
    pub fn recover(&mut self) -> Result<Vec<u64>, OrchError> {
        let orphans: Vec<u64> = self
            .table
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(|j| j.id)
            .collect();
        for &id in &orphans {
            let ev = self
                .lifecycle(id, OpsKind::Requeued)
                .detail("orphaned by a dead daemon");
            self.append(ev)?;
        }
        Ok(orphans)
    }

    /// An event about `job`, carrying the job's study key.
    fn lifecycle(&self, job: u64, kind: OpsKind) -> OpsEvent {
        let mut ev = OpsEvent::new(kind).job(job);
        ev.key = self.table.job(job).and_then(|j| j.key.clone());
        ev
    }
}

impl JobRecord {
    /// Multi-line human rendering of one job.
    pub fn render(&self) -> String {
        let key = self
            .key
            .as_deref()
            .map(|k| k[..12.min(k.len())].to_string())
            .unwrap_or_else(|| "?".to_string());
        let wait = match self.queue_wait_ms {
            Some(ms) => format!("{ms}ms"),
            None => "?".to_string(),
        };
        let mut s = format!(
            "job {:>3}  {}  {}  queue-wait {}  {} lease(s), {} shard(s) / {} experiment(s) \
             on {} worker(s), {:.1}ms shard time",
            self.id,
            key,
            self.state.name(),
            wait,
            self.leases,
            self.shards,
            self.experiments,
            self.workers.len(),
            self.shard_wall_ns as f64 / 1e6,
        );
        if self.merged {
            s.push_str(", merged");
        }
        if self.requeues > 0 {
            s.push_str(&format!(", {} requeue(s)", self.requeues));
        }
        if self.engine_faults > 0 {
            s.push_str(&format!(", {} engine fault(s)", self.engine_faults));
        }
        if let Some(e) = &self.error {
            s.push_str(&format!("\n         error: {e}"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vulfi_ops_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(bench: &str) -> StudySpec {
        StudySpec {
            bench: bench.to_string(),
            ..StudySpec::default()
        }
    }

    /// One served job, submit to completion, with three shards on two
    /// workers.
    fn full_lifecycle(j: &mut Journal) -> u64 {
        let id = j
            .submit(&spec("vector sum"), "deadbeef", Some("alice"))
            .unwrap();
        j.started(id).unwrap();
        for (i, w) in ["w0", "w1", "w0"].iter().enumerate() {
            let (a, b) = (i as u64 * 5, (i as u64 + 1) * 5);
            let ev = |kind| OpsEvent::new(kind).job(id).key("deadbeef").worker(w);
            j.append(ev(OpsKind::LeaseGranted).shard(0, a, b)).unwrap();
            j.append(ev(OpsKind::ShardDone).shard(0, a, b).wall_ns(1_000_000))
                .unwrap();
        }
        j.append(OpsEvent::new(OpsKind::Merged).job(id).key("deadbeef"))
            .unwrap();
        j.completed(id).unwrap();
        id
    }

    #[test]
    fn the_table_reconstructs_the_full_lifecycle() {
        let root = temp_root("lifecycle");
        let mut j = Journal::open(&root).unwrap();
        assert!(j.table().jobs.is_empty());
        full_lifecycle(&mut j);

        let s = j.table();
        assert_eq!(s.events, 10);
        assert_eq!(s.jobs.len(), 1);
        let r = &s.jobs[0];
        assert_eq!(r.id, 1);
        assert_eq!(
            r.spec.as_ref().map(|s| s.bench.as_str()),
            Some("vector sum")
        );
        assert_eq!(r.key.as_deref(), Some("deadbeef"));
        assert_eq!(r.tenant.as_deref(), Some("alice"));
        assert!(r.queue_wait_ms.is_some(), "submit → start wait known");
        assert_eq!((r.leases, r.shards, r.experiments), (3, 3, 15));
        assert_eq!(r.shard_wall_ns, 3_000_000);
        assert_eq!(r.workers, vec!["w0".to_string(), "w1".to_string()]);
        assert!(r.merged);
        assert_eq!(r.state, JobState::Completed);
        assert!(r.finished_unix_ms.is_some());
        assert_eq!(s.workers(), vec!["w0".to_string(), "w1".to_string()]);

        let line = r.render();
        assert!(line.contains("3 shard(s) / 15 experiment(s)"), "{line}");
        assert!(line.contains("completed"), "{line}");
        assert!(line.contains("merged"), "{line}");

        // The journal is the queue: FIFO over queued jobs, failures kept.
        let a = j.submit(&spec("vector sum"), "aaaa", None).unwrap();
        let b = j.submit(&spec("dot product"), "bbbb", None).unwrap();
        assert_eq!(j.table().next_queued().unwrap().id, a, "FIFO");
        j.started(a).unwrap();
        assert_eq!(j.table().next_queued().unwrap().id, b);
        j.failed(a, "boom").unwrap();
        let r = j.table().job(a).unwrap();
        assert_eq!(r.state, JobState::Failed);
        assert_eq!(r.error.as_deref(), Some("boom"));
        assert!(r.render().contains("error: boom"));
    }

    #[test]
    fn tail_returns_most_recent_events() {
        let root = temp_root("tail");
        let mut j = Journal::open(&root).unwrap();
        full_lifecycle(&mut j);
        let log = OpsLog::open(&root).unwrap();
        let t = log.tail(2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, OpsKind::Merged);
        assert_eq!(t[1].kind, OpsKind::Completed);
        assert!(t[1].render_line().contains("completed"));
        // Asking for more than exists returns everything.
        assert_eq!(log.tail(1000).unwrap().len(), 10);
    }

    #[test]
    fn store_wide_events_and_narrative_counters_are_summarized() {
        let events = [
            OpsEvent::new(OpsKind::Submitted).job(7).key("cafe"),
            OpsEvent::new(OpsKind::Failed)
                .job(7)
                .key("cafe")
                .detail("boom"),
            OpsEvent::new(OpsKind::Fsck).detail("quarantined 1 log"),
            OpsEvent::new(OpsKind::EngineFault).job(7).detail("panic"),
            OpsEvent::new(OpsKind::AlertFiring).detail("high-sdc value 9.1"),
            OpsEvent::new(OpsKind::AlertResolved).detail("high-sdc value 1.2"),
        ];
        let s = summarize_events(&events);
        assert_eq!(s.fsck_actions, 1);
        assert_eq!(s.alert_transitions, 2, "alert events are store-wide");
        let r = &s.jobs[0];
        assert_eq!(r.state, JobState::Failed);
        assert_eq!(r.error.as_deref(), Some("boom"));
        assert_eq!(r.engine_faults, 1);
    }

    #[test]
    fn reopen_recovers_orphans_and_ids_keep_advancing() {
        let root = temp_root("reopen");
        let id = {
            let mut j = Journal::open(&root).unwrap();
            let id = j.submit(&spec("vector sum"), "deadbeef", None).unwrap();
            j.started(id).unwrap();
            id
        };
        // "Daemon restart": the running job is re-queued, spec intact.
        let mut j = Journal::open(&root).unwrap();
        assert_eq!(j.recover().unwrap(), vec![id]);
        let job = j.table().next_queued().unwrap();
        assert_eq!(job.id, id);
        assert_eq!(job.requeues, 1);
        assert_eq!(job.spec.as_ref().unwrap().bench, "vector sum");
        let next = j.submit(&spec("dot product"), "cafef00d", None).unwrap();
        assert!(next > id);
        // Recovery is idempotent: nothing running now.
        assert!(j.recover().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_heals_on_open_and_corruption_is_loud_until_fsck() {
        let root = temp_root("torn");
        let path = {
            let mut j = Journal::open(&root).unwrap();
            full_lifecycle(&mut j);
            j.path()
        };
        // Killed writer: half a trailing line vanishes on reopen.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"unix_ms\":1,\"kind\":\"Shar");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(Journal::open(&root).unwrap().table().events, 10);

        // Mid-file corruption: the journal refuses to open until repaired.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&root).err().expect("corruption must be loud");
        assert!(err.0.contains("vulfi store fsck --repair"), "{err}");
        let report = OpsLog::open(&root).unwrap().fsck(true).unwrap();
        assert!(report.quarantined.is_some());
        assert!(Journal::open(&root).unwrap().table().events < 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any interleaving of lifecycle transitions (requeues included)
        /// and narrative events folds live to exactly the table a fresh
        /// open replays, and no two submits share an id, not even after
        /// a salvage lost a submit line.
        #[test]
        fn journal_replay_equals_live_table(
            ops in prop::collection::vec((0u8..10, 0u64..6), 1..60),
        ) {
            let root = temp_root("replay");
            let mut j = Journal::open(&root).unwrap();
            let mut ids = Vec::new();
            for (op, pick) in ops {
                let job = ids.get(pick as usize % ids.len().max(1)).copied().unwrap_or(1);
                let ev = |kind| OpsEvent::new(kind).job(job).key("k").worker("w0");
                match op {
                    0 | 1 => {
                        let id = j.submit(&spec("vector sum"), &format!("k{pick}"), None).unwrap();
                        prop_assert!(!ids.contains(&id), "id {} reused", id);
                        ids.push(id);
                    }
                    2 => { j.started(job).unwrap(); }
                    3 => j.completed(job).unwrap(),
                    4 => j.failed(job, "boom").unwrap(),
                    5 => { j.recover().unwrap(); }
                    6 => j.append(ev(OpsKind::LeaseGranted).shard(0, 0, 2)).unwrap(),
                    7 => j.append(ev(OpsKind::ShardDone).shard(0, 0, 2).wall_ns(5)).unwrap(),
                    8 => j.append(ev(OpsKind::Merged)).unwrap(),
                    _ => j.append(OpsEvent::new(OpsKind::AlertFiring).detail("a")).unwrap(),
                }
            }
            let replayed = Journal::open(&root).unwrap();
            prop_assert_eq!(replayed.table(), j.table());

            // Salvage the journal without the submit line of the newest
            // job that has later events: its id must stay taken.
            let events = j.events().unwrap();
            let later = events.iter().filter(|e| e.kind != OpsKind::Submitted);
            if let Some(lost) = later.filter_map(|e| e.job).max() {
                let text = std::fs::read_to_string(j.path()).unwrap();
                let needle = format!("\"job\":{lost},");
                let kept: Vec<&str> = text
                    .lines()
                    .filter(|l| !(l.contains("\"Submitted\"") && l.contains(&needle)))
                    .collect();
                std::fs::write(j.path(), kept.join("\n")).unwrap();
                let mut salvaged = Journal::open(&root).unwrap();
                prop_assert!(salvaged.table().job(lost).is_some());
                let id = salvaged.submit(&spec("vector sum"), "new", None).unwrap();
                prop_assert!(id > lost && !ids.contains(&id), "id {} reused after salvage", id);
            }
        }
    }
}
