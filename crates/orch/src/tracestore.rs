//! Persistent trace shards: per-experiment spans written next to the
//! result store, with the *same* crash-tolerance contract.
//!
//! Layout under the trace root (a sibling of the result store, chosen
//! by `vulfi study --trace <dir>`):
//!
//! ```text
//! <trace-root>/<study-key>/
//!   traces.jsonl        # one checksummed JSON line per traced shard
//!   traces.quarantine/  # corrupt logs moved aside by fsck --repair
//! ```
//!
//! Every line is a [`TraceShard`] in the store's checksummed format
//! (`{json}\tcrc32=xxxxxxxx`, leading-newline appends, torn-tail
//! recovery, fsck quarantine + salvage) via the shared
//! [`CheckedLog`](crate::store) engine — a kill tears at most the
//! in-flight line, a flipped byte is detected rather than summarized,
//! and `vulfi trace fsck --repair` salvages every intact record.
//!
//! Shards are **self-describing**: each carries the workload, category,
//! and ISA of its study, so `vulfi trace summarize` needs only the
//! trace root — no result store, no manifest. Re-executed shards (from
//! resumed runs) may duplicate coordinates; [`summarize`] deduplicates
//! by `(study, campaign, experiment)` with last-write-wins, so a resume
//! never double-counts.

use std::fs;
use std::path::{Path, PathBuf};

use std::collections::BTreeMap;

use vulfi::{ExperimentTrace, Outcome};

use crate::key::StudyKey;
use crate::store::{CheckedLog, FsckReport, StudyFsck};
use crate::OrchError;

/// One traced shard: the spans of a contiguous run of experiments of
/// one campaign, plus enough study identity to be read standalone.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceShard {
    pub campaign: usize,
    /// Experiment index range `[start, end)` within the campaign.
    pub start: usize,
    pub end: usize,
    pub workload: String,
    /// §II-C category the study injected (`pure-data`/`control`/`address`).
    pub category: String,
    pub isa: String,
    /// Fault model the study injected (full parameterized name, e.g.
    /// `multi-bit-burst:2`).
    pub model: String,
    pub traces: Vec<ExperimentTrace>,
}

// Manual serde: trace logs written before the fault model existed have
// no `model` key; read them as single-bit-flip instead of erroring.
impl serde::Serialize for TraceShard {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("campaign".to_string(), self.campaign.to_value()),
            ("start".to_string(), self.start.to_value()),
            ("end".to_string(), self.end.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("category".to_string(), self.category.to_value()),
            ("isa".to_string(), self.isa.to_value()),
            ("model".to_string(), self.model.to_value()),
            ("traces".to_string(), self.traces.to_value()),
        ])
    }
}

impl serde::Deserialize for TraceShard {
    fn from_value(v: &serde::Value) -> Result<TraceShard, serde::DeError> {
        Ok(TraceShard {
            campaign: serde::field(v, "campaign")?,
            start: serde::field(v, "start")?,
            end: serde::field(v, "end")?,
            workload: serde::field(v, "workload")?,
            category: serde::field(v, "category")?,
            isa: serde::field(v, "isa")?,
            model: match v.get("model") {
                Some(m) => String::from_value(m)?,
                None => vulfi::FaultModel::default().name(),
            },
            traces: serde::field(v, "traces")?,
        })
    }
}

/// A directory of per-study trace logs.
pub struct TraceStore {
    root: PathBuf,
}

impl TraceStore {
    /// Open (creating if needed) a trace store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<TraceStore, OrchError> {
        let root = root.into();
        fs::create_dir_all(&root)
            .map_err(|e| OrchError(format!("create trace store {}: {e}", root.display())))?;
        Ok(TraceStore { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn study(&self, key: &StudyKey) -> TraceLog {
        TraceLog {
            dir: self.root.join(&key.0),
        }
    }

    /// Keys of every study directory holding a trace log (or the
    /// quarantined remains of one).
    pub fn studies(&self) -> Result<Vec<StudyKey>, OrchError> {
        let mut keys = Vec::new();
        let entries = fs::read_dir(&self.root)
            .map_err(|e| OrchError(format!("read trace store {}: {e}", self.root.display())))?;
        for entry in entries {
            let entry = entry.map_err(|e| OrchError(format!("read trace store entry: {e}")))?;
            let p = entry.path();
            if p.join("traces.jsonl").is_file() || p.join("traces.quarantine").is_dir() {
                keys.push(StudyKey(entry.file_name().to_string_lossy().into_owned()));
            }
        }
        keys.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(keys)
    }

    /// Check (and with `repair`, heal) every study's trace log.
    pub fn fsck(&self, repair: bool) -> Result<FsckReport, OrchError> {
        let mut report = FsckReport::default();
        for key in self.studies()? {
            report.studies.push(self.study(&key).fsck(repair)?);
        }
        Ok(report)
    }
}

/// One study's trace log.
pub struct TraceLog {
    dir: PathBuf,
}

impl TraceLog {
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn log(&self) -> CheckedLog {
        CheckedLog::new(
            self.dir.join("traces.jsonl"),
            self.dir.join("traces.quarantine"),
            "vulfi trace fsck --repair",
        )
    }

    pub fn exists(&self) -> bool {
        self.dir.join("traces.jsonl").is_file()
    }

    /// Append one traced shard as a single checksummed JSONL line (see
    /// `CheckedLog::append` for the crash-safety contract).
    pub fn append_shard(&self, shard: &TraceShard) -> Result<(), OrchError> {
        self.log().append(shard)
    }

    /// All fully-written trace shards, in canonical `(campaign, start,
    /// end)` order like [`crate::StudyStore::shards`]. A torn trailing
    /// line is skipped; earlier corruption is an error pointing at
    /// `vulfi trace fsck` — a summary computed over silently-dropped
    /// spans would be skewed without a trace.
    pub fn shards(&self) -> Result<Vec<TraceShard>, OrchError> {
        let mut shards: Vec<TraceShard> = self.log().records()?;
        shards.sort_by_key(|s| (s.campaign, s.start, s.end));
        Ok(shards)
    }

    /// Heal a torn trailing line left by a killed writer; called by the
    /// runner on every resumed traced study.
    pub fn trim_torn_tail(&self) -> Result<bool, OrchError> {
        self.log().trim_torn_tail::<TraceShard>()
    }

    /// Check this study's trace log; with `repair`, quarantine a
    /// damaged log and salvage every checksum-valid shard. Unlike the
    /// result store there is no manifest to invalidate: traces are an
    /// observability sidecar, and lost spans simply vanish from
    /// summaries (loudly, via the fsck report).
    pub fn fsck(&self, repair: bool) -> Result<StudyFsck, OrchError> {
        let key = StudyKey(
            self.dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
        );
        self.log().fsck::<TraceShard>(key, repair)
    }
}

/// Propagation-distance percentiles (nearest-rank) over the spans that
/// recorded a propagation distance.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PropagationPercentiles {
    pub samples: usize,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl PropagationPercentiles {
    /// Nearest-rank percentiles of `samples` (need not be sorted).
    pub fn of(mut samples: Vec<u64>) -> Option<PropagationPercentiles> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = |q: f64| {
            let n = samples.len();
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            samples[idx]
        };
        Some(PropagationPercentiles {
            samples: samples.len(),
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: *samples.last().unwrap(),
        })
    }
}

/// Aggregates for one §II-C category.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CategorySummary {
    pub category: String,
    pub spans: usize,
    pub sdc: u64,
    pub benign: u64,
    pub crash: u64,
    /// `None` when no span in this category recorded a propagation
    /// distance.
    pub propagation: Option<PropagationPercentiles>,
}

/// One static site ranked by how often its faults became SDCs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SiteSdcSummary {
    pub workload: String,
    pub site_id: u32,
    pub opcode: String,
    /// Experiments that injected this site and ended in SDC.
    pub sdc: u64,
    /// All experiments that injected this site.
    pub total: u64,
}

/// Store-wide roll-up of every trace shard.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceSummary {
    pub studies: usize,
    /// Deduplicated spans (one per experiment coordinate).
    pub spans: usize,
    /// Spans whose experiment actually injected a fault.
    pub injected: usize,
    pub categories: Vec<CategorySummary>,
    /// Top-N sites by SDC count (ties broken by total injections, then
    /// site id). Sites that never produced an SDC are omitted.
    pub top_sdc_sites: Vec<SiteSdcSummary>,
}

/// Roll up every study's trace shards: per-category outcome counts and
/// propagation-distance percentiles, plus the `top_n` most SDC-prone
/// static sites.
///
/// Duplicate experiment coordinates (a resumed run re-executing a
/// shard whose result append survived but whose trace append did not,
/// or vice versa) are deduplicated last-write-wins, so counts match a
/// single clean execution.
pub fn summarize(store: &TraceStore, top_n: usize) -> Result<TraceSummary, OrchError> {
    let mut spans: BTreeMap<(String, usize, usize), (String, String, ExperimentTrace)> =
        BTreeMap::new();
    let keys = store.studies()?;
    let studies = keys.len();
    for key in keys {
        for shard in store.study(&key).shards()? {
            for t in shard.traces {
                spans.insert(
                    (key.0.clone(), shard.campaign, t.index),
                    (shard.category.clone(), shard.workload.clone(), t),
                );
            }
        }
    }

    let mut categories: BTreeMap<String, (usize, u64, u64, u64, Vec<u64>)> = BTreeMap::new();
    let mut sites: BTreeMap<(String, u32), (String, u64, u64)> = BTreeMap::new();
    let mut injected = 0usize;
    for (category, workload, t) in spans.values() {
        let entry = categories.entry(category.clone()).or_default();
        entry.0 += 1;
        match t.outcome {
            Outcome::Sdc => entry.1 += 1,
            Outcome::Benign => entry.2 += 1,
            Outcome::Crash => entry.3 += 1,
        }
        if let Some(p) = t.propagation {
            entry.4.push(p);
        }
        if let Some(inj) = &t.injection {
            injected += 1;
            // Site ids are per-instrumented-module; qualify by the
            // workload so distinct programs never alias.
            let site = sites
                .entry((workload.clone(), inj.site_id))
                .or_insert_with(|| (inj.opcode.clone(), 0, 0));
            site.2 += 1;
            if t.outcome == Outcome::Sdc {
                site.1 += 1;
            }
        }
    }

    let categories = categories
        .into_iter()
        .map(
            |(category, (spans, sdc, benign, crash, samples))| CategorySummary {
                category,
                spans,
                sdc,
                benign,
                crash,
                propagation: PropagationPercentiles::of(samples),
            },
        )
        .collect();

    let mut top: Vec<SiteSdcSummary> = sites
        .into_iter()
        .filter(|(_, (_, sdc, _))| *sdc > 0)
        .map(
            |((workload, site_id), (opcode, sdc, total))| SiteSdcSummary {
                workload,
                site_id,
                opcode,
                sdc,
                total,
            },
        )
        .collect();
    top.sort_by(|a, b| {
        b.sdc
            .cmp(&a.sdc)
            .then(b.total.cmp(&a.total))
            .then(a.site_id.cmp(&b.site_id))
            .then(a.workload.cmp(&b.workload))
    });
    top.truncate(top_n);

    Ok(TraceSummary {
        studies,
        spans: spans.len(),
        injected,
        categories,
        top_sdc_sites: top,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize as _, Serialize as _};

    fn span(
        index: usize,
        outcome: Outcome,
        site: u32,
        propagation: Option<u64>,
    ) -> ExperimentTrace {
        ExperimentTrace {
            index,
            outcome,
            detected: false,
            input: 0,
            injection: Some(vulfi::TraceInjection {
                site_id: site,
                opcode: "fmul".to_string(),
                categories: vec!["pure-data".to_string()],
                lane: 0,
                bit: 3,
                occurrence: 1,
                at_dyn_inst: 10,
            }),
            golden_dyn_insts: 100,
            faulty_dyn_insts: 100,
            dyn_inst_delta: 0,
            propagation,
            trap: None,
            wall_ns: 1000,
        }
    }

    fn shard(campaign: usize, start: usize, traces: Vec<ExperimentTrace>) -> TraceShard {
        TraceShard {
            campaign,
            start,
            end: start + traces.len(),
            workload: "W".to_string(),
            category: "pure-data".to_string(),
            isa: "avx".to_string(),
            model: "single-bit-flip".to_string(),
            traces,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vulfi-tracestore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn append_and_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = TraceStore::open(&dir).unwrap();
        let key = StudyKey("k1".to_string());
        let log = store.study(&key);
        log.append_shard(&shard(0, 0, vec![span(0, Outcome::Sdc, 1, Some(5))]))
            .unwrap();
        log.append_shard(&shard(0, 1, vec![span(1, Outcome::Benign, 2, None)]))
            .unwrap();
        let shards = log.shards().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].traces[0].outcome, Outcome::Sdc);
        assert_eq!(store.studies().unwrap(), vec![key]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_model_shard_lines_read_as_single_bit_flip() {
        // A shard serialized without the `model` key (the on-disk shape
        // before fault models existed) must still deserialize.
        let mut legacy = shard(2, 5, vec![span(5, Outcome::Sdc, 1, None)]);
        legacy.model = "multi-bit-burst:2".to_string();
        let v = legacy.to_value();
        let stripped = serde::Value::Object(
            v.as_object()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "model")
                .cloned()
                .collect(),
        );
        let back = TraceShard::from_value(&stripped).unwrap();
        assert_eq!(back.model, "single-bit-flip");
        assert_eq!(back.campaign, 2);
        assert_eq!(back.traces.len(), 1);
        // And with the key present it round-trips exactly.
        assert_eq!(TraceShard::from_value(&v).unwrap(), legacy);
    }

    #[test]
    fn torn_tail_skipped_and_trimmed() {
        let dir = tmpdir("torn");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k".to_string()));
        log.append_shard(&shard(0, 0, vec![span(0, Outcome::Crash, 3, None)]))
            .unwrap();
        // Simulate a killed writer: a half-written line with no newline.
        let path = log.dir().join("traces.jsonl");
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"campaign\":1,\"start\":");
        fs::write(&path, bytes).unwrap();

        let shards = log.shards().unwrap();
        assert_eq!(shards.len(), 1, "torn tail must be skipped, not fatal");
        assert!(log.trim_torn_tail().unwrap());
        assert!(!log.trim_torn_tail().unwrap(), "second trim is a no-op");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_loud_and_repairable() {
        let dir = tmpdir("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k".to_string()));
        log.append_shard(&shard(0, 0, vec![span(0, Outcome::Sdc, 1, Some(2))]))
            .unwrap();
        log.append_shard(&shard(0, 1, vec![span(1, Outcome::Benign, 1, None)]))
            .unwrap();
        // Flip a byte in the FIRST record's JSON body.
        let path = log.dir().join("traces.jsonl");
        let mut bytes = fs::read(&path).unwrap();
        let pos = bytes.iter().position(|b| *b == b'"').unwrap();
        bytes[pos + 1] ^= 0x20;
        fs::write(&path, bytes).unwrap();

        let err = log.shards().unwrap_err();
        assert!(
            err.0.contains("vulfi trace fsck"),
            "error must point at the trace fsck command: {err}"
        );

        let report = store.fsck(true).unwrap();
        assert!(report.needs_repair());
        let study = &report.studies[0];
        assert_eq!(study.valid, 1, "intact record salvaged");
        assert!(study.quarantined.is_some());
        // After repair the log reads cleanly with the surviving shard.
        let shards = log.shards().unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].start, 1);
        // And a re-check is clean.
        assert!(!store.fsck(false).unwrap().dirty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn summarize_dedupes_and_ranks() {
        let dir = tmpdir("summarize");
        let store = TraceStore::open(&dir).unwrap();
        let log = store.study(&StudyKey("k".to_string()));
        log.append_shard(&shard(
            0,
            0,
            vec![
                span(0, Outcome::Sdc, 7, Some(10)),
                span(1, Outcome::Benign, 7, None),
                span(2, Outcome::Sdc, 9, Some(100)),
                span(3, Outcome::Crash, 9, Some(1)),
            ],
        ))
        .unwrap();
        // A resumed run re-executed experiments 2..4: same coordinates,
        // must not double-count.
        log.append_shard(&shard(
            0,
            2,
            vec![
                span(2, Outcome::Sdc, 9, Some(100)),
                span(3, Outcome::Crash, 9, Some(1)),
            ],
        ))
        .unwrap();

        let s = summarize(&store, 5).unwrap();
        assert_eq!(s.studies, 1);
        assert_eq!(s.spans, 4, "duplicates deduplicated by coordinates");
        assert_eq!(s.injected, 4);
        assert_eq!(s.categories.len(), 1);
        let c = &s.categories[0];
        assert_eq!(c.category, "pure-data");
        assert_eq!((c.sdc, c.benign, c.crash), (2, 1, 1));
        let p = c.propagation.as_ref().unwrap();
        assert_eq!(p.samples, 3);
        assert_eq!(p.p50, 10);
        assert_eq!(p.max, 100);
        // Site 9: 1 SDC of 2 injections; site 7: 1 SDC of 2. Tie on sdc
        // and total breaks toward the lower site id.
        assert_eq!(s.top_sdc_sites.len(), 2);
        assert_eq!(s.top_sdc_sites[0].site_id, 7);
        assert_eq!(s.top_sdc_sites[0].sdc, 1);
        assert_eq!(s.top_sdc_sites[0].total, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn percentiles_nearest_rank() {
        let p = PropagationPercentiles::of((1..=100).collect()).unwrap();
        assert_eq!(p.p50, 50);
        assert_eq!(p.p90, 90);
        assert_eq!(p.p99, 99);
        assert_eq!(p.max, 100);
        let one = PropagationPercentiles::of(vec![42]).unwrap();
        assert_eq!((one.p50, one.p90, one.p99, one.max), (42, 42, 42, 42));
        assert!(PropagationPercentiles::of(vec![]).is_none());
    }
}
