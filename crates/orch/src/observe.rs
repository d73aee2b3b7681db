//! Live observability for running studies.
//!
//! The runner updates a [`Progress`] under its store lock after every
//! shard; callers receive a [`ProgressSnapshot`] through their callback
//! and render it however they like ([`ProgressSnapshot::render_line`]
//! for terminals, `serde_json` for `--json` streams).

use std::time::Instant;

use vulfi::{OutcomeCounts, StudyConfig};

use crate::plan::covered_experiments;
use crate::store::ShardRecord;

/// Time constant of the throughput EWMA: a shard landed `tau` seconds
/// ago has decayed to ~37% weight. Ten seconds tracks ramp-up and
/// stragglers without jittering on every shard.
const EWMA_TAU_SECS: f64 = 10.0;

/// One exponentially-weighted moving-average step with irregular
/// sampling: `alpha = 1 - exp(-dt/tau)`, so the smoothing is invariant
/// to how often shards happen to land.
fn ewma_step(prev: Option<f64>, rate: f64, dt: f64) -> f64 {
    match prev {
        None => rate,
        Some(prev) => {
            let alpha = 1.0 - (-dt / EWMA_TAU_SECS).exp();
            prev + alpha * (rate - prev)
        }
    }
}

/// Humanize a count for status lines: `950` → `"950"`,
/// `1_200_000` → `"1.2M"`, `123_456_789` → `"123M"`.
pub fn humanize(n: u64) -> String {
    const UNITS: [(u64, &str); 4] = [
        (1_000_000_000_000, "T"),
        (1_000_000_000, "G"),
        (1_000_000, "M"),
        (1_000, "k"),
    ];
    for (scale, suffix) in UNITS {
        if n >= scale {
            let v = n as f64 / scale as f64;
            let body = if v >= 100.0 {
                format!("{v:.0}")
            } else {
                let s = format!("{v:.1}");
                s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
            };
            return format!("{body}{suffix}");
        }
    }
    n.to_string()
}

/// Mutable progress state owned by the runner.
#[derive(Debug)]
pub struct Progress {
    /// Experiments in the full plan (all campaigns × experiments each).
    pub total: u64,
    /// Experiments covered by shards reused from the store.
    pub resumed: u64,
    /// Experiments executed by this invocation so far.
    pub executed: u64,
    /// Outcome counts over everything seen so far (resumed + executed).
    pub counts: OutcomeCounts,
    /// Golden-run dynamic instructions over everything seen so far.
    pub dyn_insts: u64,
    started: Instant,
    /// When the most recent shard landed (EWMA sampling clock).
    last_shard: Instant,
    /// EWMA of recent shard throughput, exp/s. `None` until the first
    /// shard of this invocation lands.
    ewma_eps: Option<f64>,
}

impl Progress {
    pub fn start(total: u64) -> Progress {
        let now = Instant::now();
        Progress {
            total,
            resumed: 0,
            executed: 0,
            counts: OutcomeCounts::default(),
            dyn_insts: 0,
            started: now,
            last_shard: now,
            ewma_eps: None,
        }
    }

    /// Progress of a study resuming over its stored shards `done`.
    pub fn resume(cfg: &StudyConfig, done: &[ShardRecord]) -> Progress {
        let mut p = Progress::start((cfg.max_campaigns * cfg.experiments_per_campaign) as u64);
        p.resumed = covered_experiments(done, cfg) as u64;
        done.iter().for_each(|rec| p.fold(rec));
        p
    }

    /// Fold in one shard this invocation executed.
    pub fn add_shard(&mut self, rec: &ShardRecord) {
        self.note_shard(rec.experiments.len() as u64);
        self.fold(rec);
    }

    fn fold(&mut self, rec: &ShardRecord) {
        for e in &rec.experiments {
            self.counts.add(e);
            self.dyn_insts += e.golden_dyn_insts;
        }
    }

    /// Record one completed shard of `experiments` experiments: bumps
    /// the executed count and folds the shard's instantaneous
    /// throughput into the EWMA that [`snapshot`](Progress::snapshot)
    /// reports, so rate and ETA track *recent* speed rather than the
    /// whole-invocation average (which goes stale after a slow start or
    /// a resumed gap).
    pub fn note_shard(&mut self, experiments: u64) {
        let now = Instant::now();
        let dt = now.duration_since(self.last_shard).as_secs_f64();
        self.last_shard = now;
        self.executed += experiments;
        if dt > 0.0 {
            self.ewma_eps = Some(ewma_step(self.ewma_eps, experiments as f64 / dt, dt));
        }
    }

    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        // Recent (EWMA) throughput when shards have landed; before that,
        // the whole-invocation average over what this invocation actually
        // ran — resumed shards were free and would inflate the ETA's
        // denominator either way.
        let eps = self.ewma_eps.unwrap_or(if elapsed > 0.0 {
            self.executed as f64 / elapsed
        } else {
            0.0
        });
        let done = self.resumed + self.executed;
        let remaining = self.total.saturating_sub(done);
        let eta_secs = if eps > 0.0 {
            remaining as f64 / eps
        } else {
            f64::INFINITY
        };
        ProgressSnapshot {
            done,
            total: self.total,
            resumed: self.resumed,
            executed: self.executed,
            elapsed_secs: elapsed,
            experiments_per_sec: eps,
            eta_secs,
            counts: self.counts,
            dyn_insts: self.dyn_insts,
        }
    }
}

/// One point-in-time view of a study run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ProgressSnapshot {
    pub done: u64,
    pub total: u64,
    pub resumed: u64,
    pub executed: u64,
    pub elapsed_secs: f64,
    pub experiments_per_sec: f64,
    /// `Infinity` until the first shard of this invocation lands.
    pub eta_secs: f64,
    pub counts: OutcomeCounts,
    pub dyn_insts: u64,
}

impl ProgressSnapshot {
    /// A single status line, e.g.
    /// `[ 120/600] 412.3 exp/s ETA 1.2s | SDC 34 Benign 71 Crash 15 | 1.2M dyn insts`.
    pub fn render_line(&self) -> String {
        let eta = if self.eta_secs.is_finite() {
            format!("{:.1}s", self.eta_secs)
        } else {
            "?".to_string()
        };
        format!(
            "[{:>6}/{}] {:.1} exp/s ETA {} | SDC {} Benign {} Crash {} | {} dyn insts",
            self.done,
            self.total,
            self.experiments_per_sec,
            eta,
            self.counts.sdc,
            self.counts.benign,
            self.counts.crash,
            humanize(self.dyn_insts),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_accounts_resumed_and_executed() {
        let mut p = Progress::start(100);
        p.resumed = 40;
        p.executed = 10;
        p.counts.sdc = 5;
        let s = p.snapshot();
        assert_eq!(s.done, 50);
        assert_eq!(s.total, 100);
        assert!(s.experiments_per_sec >= 0.0);
        let line = s.render_line();
        assert!(line.contains("50/100"), "{line}");
        assert!(line.contains("SDC 5"), "{line}");
    }

    #[test]
    fn humanize_picks_sensible_units() {
        assert_eq!(humanize(0), "0");
        assert_eq!(humanize(950), "950");
        assert_eq!(humanize(1_000), "1k");
        assert_eq!(humanize(1_500), "1.5k");
        assert_eq!(humanize(1_200_000), "1.2M");
        assert_eq!(humanize(2_000_000), "2M");
        assert_eq!(humanize(123_456_789), "123M");
        assert_eq!(humanize(7_300_000_000), "7.3G");
        assert_eq!(humanize(2_500_000_000_000), "2.5T");
    }

    #[test]
    fn render_line_humanizes_dyn_insts() {
        let mut p = Progress::start(600);
        p.executed = 120;
        p.dyn_insts = 1_200_000;
        let line = p.snapshot().render_line();
        assert!(line.contains("1.2M dyn insts"), "{line}");
    }

    #[test]
    fn ewma_tracks_recent_rate() {
        // First sample seeds the average directly.
        assert_eq!(ewma_step(None, 100.0, 0.1), 100.0);
        // After a long gap the new rate dominates...
        let v = ewma_step(Some(100.0), 10.0, 60.0);
        assert!((v - 10.0).abs() < 1.0, "{v}");
        // ...while a quick sample only nudges it.
        let v = ewma_step(Some(100.0), 10.0, 0.1);
        assert!(v > 95.0 && v < 100.0, "{v}");
    }

    #[test]
    fn note_shard_switches_rate_to_recent_throughput() {
        let mut p = Progress::start(1000);
        p.note_shard(25);
        p.note_shard(25);
        assert_eq!(p.executed, 50);
        let s = p.snapshot();
        assert!(s.experiments_per_sec > 0.0, "{}", s.experiments_per_sec);
        assert!(s.eta_secs.is_finite());
    }

    #[test]
    fn snapshot_serializes() {
        let p = Progress::start(10);
        let text = serde_json::to_string(&p.snapshot()).unwrap();
        assert!(
            text.contains("\"total\": 10") || text.contains("\"total\":10"),
            "{text}"
        );
    }
}
