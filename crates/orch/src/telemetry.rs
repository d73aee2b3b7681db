//! Telemetry time-series: the service's memory over time.
//!
//! Every observability surface before this one was point-in-time — the
//! metrics registry is a monotone set of counters, the dashboard renders
//! whatever is true *now*. This module samples the registry (plus the
//! daemon-side gauges it cannot see: queue depth, lease board state) on
//! a fixed interval and keeps the result twice:
//!
//! - in memory, in a fixed-capacity [`TelemetryRing`] the dashboard
//!   renders sparklines from and the alert engine evaluates over;
//! - on disk, as one CRC-checksummed JSONL line per sample under
//!   `<store>/telemetry/series.jsonl` ([`TelemetryLog`], sharing the
//!   [`CheckedLog`] machinery with the shard logs and the journal), so
//!   history survives daemon restarts, heals torn tails on open, and
//!   is checked by `vulfi store fsck`.
//!
//! Each [`TelemetrySample`] carries both the raw cumulative counters and
//! the delta-derived rates (exp/s, engine faults/s, lease-expiry
//! churn/s) computed by the [`Sampler`] against the previous sample, so
//! alert evaluation and rendering are pure functions of the sample
//! series — no second pass over the registry, no clock reads.
//!
//! Telemetry only ever *reads* the experiment machinery and writes to
//! its own directory: study shard bytes are identical with sampling on
//! or off (property-tested in the chaos suite).

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::key::StudyKey;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::store::{CheckedLog, StudyFsck};
use crate::OrchError;

/// Default ring capacity: at the daemon's default 1 s interval this is
/// 10 minutes of history — enough for any sustain window a dashboard
/// sparkline can usefully show.
pub const DEFAULT_RING_CAPACITY: usize = 600;

/// One point-in-time reading of every telemetry series. Cumulative
/// counters come straight from the registry; `*_rate`/`*_per_sec`
/// fields are delta-derived by the [`Sampler`] and are `0.0` on the
/// first sample after a (re)start.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySample {
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Cumulative experiments across every category × outcome cell.
    pub experiments_total: u64,
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    /// Experiments/second over the last sampling interval.
    pub exp_per_sec: f64,
    /// Cumulative SDC share of all experiments, percent (0–100).
    pub sdc_rate: f64,
    /// Jobs waiting in the queue (daemon gauge; 0 offline).
    pub queue_depth: u64,
    /// Leases currently outstanding on the active study's board.
    pub active_leases: u64,
    /// Cumulative expired-lease count (the churn counter's source).
    pub lease_expired: u64,
    /// Lease expirations/second over the last sampling interval.
    pub lease_expiry_churn: f64,
    /// Cumulative engine faults (absorbed panics).
    pub engine_faults: u64,
    /// Engine faults/second over the last sampling interval.
    pub engine_fault_rate: f64,
    pub store_retries: u64,
    /// Shard-duration quantiles, seconds (bucket upper bounds).
    pub shard_p50_s: f64,
    pub shard_p99_s: f64,
    /// Queue-wait quantiles, seconds (bucket upper bounds).
    pub queue_wait_p50_s: f64,
    pub queue_wait_p99_s: f64,
}

/// The `q`-quantile of a bucketed histogram, reported as the upper
/// bound of the first bucket whose cumulative count reaches `q` of the
/// total. The +Inf overflow bucket clamps to the largest finite bound
/// (quantiles are for trending and thresholds, and an infinity would
/// not survive the JSON round trip). Empty histogram → 0.0.
pub fn histogram_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total: u64 = h.counts.iter().sum();
    if total == 0 || h.bounds.is_empty() {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= target {
            let idx = i.min(h.bounds.len() - 1);
            return h.bounds[idx];
        }
    }
    *h.bounds.last().expect("non-empty bounds")
}

/// Daemon-side gauges the metrics registry cannot see. Offline
/// evaluation (`vulfi alerts check` over a cold store) uses
/// [`SamplerInputs::default`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplerInputs {
    /// Jobs currently in `Queued` state.
    pub queue_depth: u64,
    /// Leases outstanding on the active study's board.
    pub active_leases: u64,
    /// Cumulative expired-lease count from the board stats.
    pub lease_expired: u64,
}

/// Turns metrics snapshots into [`TelemetrySample`]s, carrying just
/// enough state (the previous sample) to derive rates. Seed it with the
/// persisted tail on restart so the first post-restart rates are
/// computed against real history instead of zero.
#[derive(Debug, Default)]
pub struct Sampler {
    prev: Option<TelemetrySample>,
}

impl Sampler {
    pub fn new() -> Sampler {
        Sampler { prev: None }
    }

    /// Resume rate derivation from a persisted sample (daemon restart).
    pub fn resume_from(last: TelemetrySample) -> Sampler {
        Sampler { prev: Some(last) }
    }

    /// Fold one metrics snapshot plus the daemon gauges into a sample
    /// stamped `unix_ms`.
    pub fn sample_at(
        &mut self,
        unix_ms: u64,
        m: &MetricsSnapshot,
        inputs: SamplerInputs,
    ) -> TelemetrySample {
        let outcome_total = |outcome: &str| -> u64 {
            m.experiments
                .iter()
                .filter(|c| c.outcome == outcome)
                .map(|c| c.count)
                .sum()
        };
        let sdc = outcome_total("sdc");
        let benign = outcome_total("benign");
        let crash = outcome_total("crash");
        let total = sdc + benign + crash;
        let rate = |delta: u64, dt_s: f64| {
            if dt_s > 0.0 {
                delta as f64 / dt_s
            } else {
                0.0
            }
        };
        let (exp_per_sec, engine_fault_rate, lease_expiry_churn) = match &self.prev {
            Some(p) if unix_ms > p.unix_ms => {
                let dt_s = (unix_ms - p.unix_ms) as f64 / 1000.0;
                (
                    rate(total.saturating_sub(p.experiments_total), dt_s),
                    rate(m.engine_faults.saturating_sub(p.engine_faults), dt_s),
                    rate(inputs.lease_expired.saturating_sub(p.lease_expired), dt_s),
                )
            }
            _ => (0.0, 0.0, 0.0),
        };
        let sample = TelemetrySample {
            unix_ms,
            experiments_total: total,
            sdc,
            benign,
            crash,
            exp_per_sec,
            sdc_rate: if total > 0 {
                100.0 * sdc as f64 / total as f64
            } else {
                0.0
            },
            queue_depth: inputs.queue_depth,
            active_leases: inputs.active_leases,
            lease_expired: inputs.lease_expired,
            lease_expiry_churn,
            engine_faults: m.engine_faults,
            engine_fault_rate,
            store_retries: m.store_retries,
            shard_p50_s: histogram_quantile(&m.shard_duration_seconds, 0.50),
            shard_p99_s: histogram_quantile(&m.shard_duration_seconds, 0.99),
            queue_wait_p50_s: histogram_quantile(&m.queue_wait_seconds, 0.50),
            queue_wait_p99_s: histogram_quantile(&m.queue_wait_seconds, 0.99),
        };
        self.prev = Some(sample.clone());
        sample
    }

    /// Convenience for callers sampling "now".
    pub fn sample_now(&mut self, m: &MetricsSnapshot, inputs: SamplerInputs) -> TelemetrySample {
        self.sample_at(now_unix_ms(), m, inputs)
    }
}

pub fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Fixed-capacity in-memory window over the most recent samples.
/// Pushing past capacity drops the oldest sample; the window is what
/// sparklines render and what alert rules evaluate over.
#[derive(Debug, Clone)]
pub struct TelemetryRing {
    capacity: usize,
    samples: Vec<TelemetrySample>,
}

impl TelemetryRing {
    pub fn new(capacity: usize) -> TelemetryRing {
        TelemetryRing {
            capacity: capacity.max(1),
            samples: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Append one sample, evicting the oldest when full.
    pub fn push(&mut self, sample: TelemetrySample) {
        if self.samples.len() == self.capacity {
            self.samples.remove(0);
        }
        self.samples.push(sample);
    }

    /// Oldest-first view of the window.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    pub fn latest(&self) -> Option<&TelemetrySample> {
        self.samples.last()
    }

    /// One series as plain numbers, oldest first (sparkline input).
    pub fn series(&self, f: impl Fn(&TelemetrySample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }
}

/// The persisted half of the ring: `<store>/telemetry/series.jsonl`,
/// one checksummed line per sample. It is observability, not state: a
/// quarantined telemetry log never blocks a study.
pub struct TelemetryLog {
    log: CheckedLog,
}

impl TelemetryLog {
    /// Open (creating if needed) the telemetry log under
    /// `store_root/telemetry`, healing a torn tail left by a killed
    /// daemon.
    pub fn open(store_root: impl AsRef<Path>) -> Result<TelemetryLog, OrchError> {
        let dir = store_root.as_ref().join("telemetry");
        std::fs::create_dir_all(&dir)
            .map_err(|e| OrchError(format!("create {}: {e}", dir.display())))?;
        let log = TelemetryLog {
            log: CheckedLog::new(
                dir.join("series.jsonl"),
                dir.join("series.quarantine"),
                "vulfi store fsck --repair",
            ),
        };
        // Mid-file corruption must not wedge daemon start; reads stay
        // loud and point at fsck.
        let _ = log.log.trim_torn_tail::<TelemetrySample>();
        Ok(log)
    }

    pub fn path(&self) -> PathBuf {
        self.log.path().to_path_buf()
    }

    /// Durably append one sample.
    pub fn append(&self, sample: &TelemetrySample) -> Result<(), OrchError> {
        self.log.append(sample)
    }

    /// Every persisted sample, oldest first.
    pub fn samples(&self) -> Result<Vec<TelemetrySample>, OrchError> {
        self.log.records()
    }

    /// The most recent `n` samples, oldest of them first.
    pub fn tail(&self, n: usize) -> Result<Vec<TelemetrySample>, OrchError> {
        let mut samples = self.samples()?;
        let skip = samples.len().saturating_sub(n);
        Ok(samples.split_off(skip))
    }

    /// Rebuild the in-memory window from the persisted tail (daemon
    /// restart: history resumes where the dead daemon left it).
    pub fn ring(&self, capacity: usize) -> Result<TelemetryRing, OrchError> {
        let mut ring = TelemetryRing::new(capacity);
        for s in self.tail(capacity)? {
            ring.push(s);
        }
        Ok(ring)
    }

    /// Integrity-check the telemetry log; with `repair`, quarantine a
    /// corrupt log and salvage the intact lines.
    pub fn fsck(&self, repair: bool) -> Result<StudyFsck, OrchError> {
        self.log
            .fsck::<TelemetrySample>(StudyKey("telemetry".to_string()), repair)
    }
}

/// Render one series as a self-contained inline `<svg>` sparkline —
/// a single polyline, no scripts, no external assets — for the zero-JS
/// dashboard. Returns a muted placeholder until two samples exist.
pub fn sparkline_svg(values: &[f64], width: u32, height: u32) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.len() < 2 {
        return "<span class=\"muted\">gathering…</span>".to_string();
    }
    let max = finite.iter().cloned().fold(f64::MIN, f64::max);
    let min = finite.iter().cloned().fold(f64::MAX, f64::min);
    let span = if (max - min).abs() < f64::EPSILON {
        1.0
    } else {
        max - min
    };
    let (w, h) = (width as f64, height as f64);
    let step = w / (finite.len() - 1) as f64;
    let pad = 1.0;
    let points: Vec<String> = finite
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let x = i as f64 * step;
            let y = pad + (h - 2.0 * pad) * (1.0 - (v - min) / span);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    format!(
        "<svg class=\"spark\" viewBox=\"0 0 {width} {height}\" width=\"{width}\" \
         height=\"{height}\" role=\"img\" aria-label=\"sparkline\">\
         <polyline fill=\"none\" stroke=\"#4a90d9\" stroke-width=\"1.5\" points=\"{}\"/></svg>",
        points.join(" ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use proptest::prelude::*;
    use vir::analysis::SiteCategory;
    use vulfi::Outcome;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vulfi_telemetry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(unix_ms: u64, total: u64) -> TelemetrySample {
        TelemetrySample {
            unix_ms,
            experiments_total: total,
            sdc: total / 10,
            benign: total - total / 10,
            crash: 0,
            exp_per_sec: total as f64,
            sdc_rate: 10.0,
            queue_depth: 1,
            active_leases: 2,
            lease_expired: 0,
            lease_expiry_churn: 0.0,
            engine_faults: 0,
            engine_fault_rate: 0.0,
            store_retries: 0,
            shard_p50_s: 0.01,
            shard_p99_s: 0.1,
            queue_wait_p50_s: 0.01,
            queue_wait_p99_s: 0.1,
        }
    }

    #[test]
    fn sampler_derives_rates_from_deltas() {
        let m = Metrics::new();
        let mut s = Sampler::new();
        for _ in 0..10 {
            m.inc_experiment(SiteCategory::PureData, Outcome::Benign);
        }
        m.inc_experiment(SiteCategory::PureData, Outcome::Sdc);
        let first = s.sample_at(1_000, &m.snapshot(), SamplerInputs::default());
        assert_eq!(first.experiments_total, 11);
        assert_eq!(first.sdc, 1);
        assert_eq!(first.exp_per_sec, 0.0, "no previous sample, no rate");
        assert!((first.sdc_rate - 100.0 / 11.0).abs() < 1e-9);

        for _ in 0..20 {
            m.inc_experiment(SiteCategory::PureData, Outcome::Benign);
        }
        m.add_engine_faults(4);
        let second = s.sample_at(
            3_000,
            &m.snapshot(),
            SamplerInputs {
                queue_depth: 3,
                active_leases: 2,
                lease_expired: 6,
            },
        );
        // 20 experiments and 4 faults over 2 s.
        assert!((second.exp_per_sec - 10.0).abs() < 1e-9, "{second:?}");
        assert!((second.engine_fault_rate - 2.0).abs() < 1e-9);
        assert!((second.lease_expiry_churn - 3.0).abs() < 1e-9);
        assert_eq!(second.queue_depth, 3);

        // A clock that does not advance produces zero rates, not NaN.
        let stuck = s.sample_at(3_000, &m.snapshot(), SamplerInputs::default());
        assert_eq!(stuck.exp_per_sec, 0.0);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let h = HistogramSnapshot {
            bounds: vec![0.01, 0.1, 1.0],
            counts: vec![50, 48, 1, 1], // last is +Inf overflow
            sum: 2.0,
        };
        assert_eq!(histogram_quantile(&h, 0.50), 0.01);
        assert_eq!(histogram_quantile(&h, 0.98), 0.1);
        assert_eq!(histogram_quantile(&h, 0.99), 1.0);
        // Overflow bucket clamps to the largest finite bound.
        assert_eq!(histogram_quantile(&h, 1.0), 1.0);
        let empty = HistogramSnapshot {
            bounds: vec![0.01, 0.1],
            counts: vec![0, 0, 0],
            sum: 0.0,
        };
        assert_eq!(histogram_quantile(&empty, 0.99), 0.0);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut ring = TelemetryRing::new(3);
        for i in 0..5u64 {
            ring.push(sample(i * 1000, i));
        }
        assert_eq!(ring.len(), 3);
        let times: Vec<u64> = ring.samples().iter().map(|s| s.unix_ms).collect();
        assert_eq!(times, vec![2000, 3000, 4000]);
        assert_eq!(ring.latest().unwrap().unix_ms, 4000);
        assert_eq!(
            ring.series(|s| s.experiments_total as f64),
            vec![2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn log_persists_heals_torn_tail_and_fscks() {
        let root = temp_root("log");
        let path = {
            let log = TelemetryLog::open(&root).unwrap();
            for i in 0..4u64 {
                log.append(&sample(i * 1000, i * 10)).unwrap();
            }
            assert_eq!(log.samples().unwrap().len(), 4);
            assert_eq!(log.tail(2).unwrap()[0].unix_ms, 2000);
            log.path()
        };
        // Killed writer: half a trailing line vanishes on reopen.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"\n{\"unix_ms\":9,\"experim");
        std::fs::write(&path, &bytes).unwrap();
        let log = TelemetryLog::open(&root).unwrap();
        assert_eq!(log.samples().unwrap().len(), 4);

        // Mid-file corruption: loud, points at the repair command, then
        // quarantined and salvaged.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = log.samples().unwrap_err();
        assert!(err.0.contains("vulfi store fsck"), "{err}");
        let report = log.fsck(true).unwrap();
        assert!(report.quarantined.is_some());
        assert!(log.samples().unwrap().len() < 4, "corrupt line dropped");
    }

    #[test]
    fn ring_reloads_persisted_tail() {
        let root = temp_root("reload");
        let log = TelemetryLog::open(&root).unwrap();
        for i in 0..10u64 {
            log.append(&sample(i * 1000, i)).unwrap();
        }
        let ring = log.ring(4).unwrap();
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.samples()[0].unix_ms, 6000);
        assert_eq!(ring.latest().unwrap().unix_ms, 9000);
        // Sampler resumed from the persisted tail derives rates against
        // real history, not zero.
        let m = Metrics::new();
        for _ in 0..100 {
            m.inc_experiment(SiteCategory::PureData, Outcome::Benign);
        }
        let mut s = Sampler::resume_from(ring.latest().unwrap().clone());
        let next = s.sample_at(10_000, &m.snapshot(), SamplerInputs::default());
        assert!((next.exp_per_sec - 91.0).abs() < 1e-9, "{next:?}");
    }

    #[test]
    fn sparkline_is_inline_svg_with_no_script() {
        assert!(sparkline_svg(&[1.0], 120, 24).contains("gathering"));
        let svg = sparkline_svg(&[0.0, 5.0, 2.5, 10.0], 120, 24);
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.contains("<polyline"), "{svg}");
        assert!(!svg.contains("<script"), "{svg}");
        // Flat series still renders (no division by zero).
        let flat = sparkline_svg(&[3.0, 3.0, 3.0], 120, 24);
        assert!(flat.contains("<polyline"), "{flat}");
        // Non-finite values are dropped, not rendered as NaN points.
        let cleaned = sparkline_svg(&[1.0, f64::INFINITY, 2.0], 120, 24);
        assert!(
            !cleaned.contains("NaN") && !cleaned.contains("inf"),
            "{cleaned}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Sample/trim/persist/reopen round trip: any sequence of
        /// samples pushed through a ring and a log reopens to exactly
        /// the persisted suffix, in order, bit-for-bit.
        #[test]
        fn ring_and_log_round_trip(
            totals in prop::collection::vec(0u64..100_000, 1..40),
            capacity in 1usize..16,
            case in 0u64..1_000_000,
        ) {
            let root = std::env::temp_dir().join(format!(
                "vulfi_telemetry_prop_{}_{case}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let mut ring = TelemetryRing::new(capacity);
            {
                let log = TelemetryLog::open(&root).unwrap();
                for (i, t) in totals.iter().enumerate() {
                    let s = sample(i as u64 * 250, *t);
                    log.append(&s).unwrap();
                    ring.push(s);
                }
            }
            // The ring holds the last `capacity` samples, oldest first.
            prop_assert_eq!(ring.len(), totals.len().min(capacity));
            // Reopen: the persisted log replays every sample, and the
            // reloaded ring equals the in-memory one field-for-field.
            let log = TelemetryLog::open(&root).unwrap();
            let all = log.samples().unwrap();
            prop_assert_eq!(all.len(), totals.len());
            for (i, t) in totals.iter().enumerate() {
                prop_assert_eq!(all[i].experiments_total, *t);
                prop_assert_eq!(all[i].unix_ms, i as u64 * 250);
            }
            let reloaded = log.ring(capacity).unwrap();
            prop_assert_eq!(reloaded.samples(), ring.samples());
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
