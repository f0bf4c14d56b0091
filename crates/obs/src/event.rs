//! The structured event vocabulary and its JSONL encoding.
//!
//! Every event serializes to a single-line JSON object whose first field is
//! `"ev"`, a stable kind tag (`"decision"`, `"clock-switch"`, …). The
//! encoding is hand-written on top of the vendored `serde` primitives
//! because the vendored derive does not support enums; keeping it manual
//! also makes the wire schema an explicit, reviewable artifact.

use serde::Serialize;

/// One per-interval decision by the interval-adaptive manager.
///
/// Captures the full §6 control-loop pipeline for the interval: the raw
/// sample, what the sanitizer kept of it, the EWMA estimate after folding it
/// in, the pattern predictor's current output, the confidence counter, and
/// the decision the manager returned (with the driving `reason`).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionEvent {
    /// Run label (usually the application name), if one was attached.
    pub app: Option<String>,
    /// 1-based interval number within the managed run.
    pub interval: u64,
    /// Configuration the structure was in when the sample was taken.
    pub config: usize,
    /// Raw observed TPI for the interval, in nanoseconds (may be NaN/∞
    /// under fault injection; non-finite values encode as `null`).
    pub raw_tpi_ns: f64,
    /// The sample after sanitize/clamp; `None` means it was rejected.
    pub sanitized_tpi_ns: Option<f64>,
    /// EWMA TPI estimate for `config` after this interval.
    pub estimate_ns: Option<f64>,
    /// Pattern predictor's pre-switch candidate, if it has one.
    pub predicted: Option<usize>,
    /// Confidence counter value after this interval.
    pub confidence: u32,
    /// Why the manager decided what it decided (stable lowercase tag).
    pub reason: &'static str,
    /// Name of the configuration policy that made the decision
    /// (`"confidence"`, `"process-level"`, …).
    pub policy: &'static str,
    /// Switch target if the decision was `SwitchTo`; `None` for `Stay`.
    pub target: Option<usize>,
}

/// The pattern predictor detecting a periodic phase and pre-switching.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which the pattern fired.
    pub interval: u64,
    /// The configuration the pattern names for the next interval.
    pub config: usize,
    /// The predictor's confidence in the detection (0–1).
    pub confidence: f64,
    /// The detected period, in intervals.
    pub period: usize,
}

/// Outcome of an attempted reconfiguration, as reported back to the manager.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchResultEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which the attempt resolved.
    pub interval: u64,
    /// Configuration the switch targeted.
    pub target: usize,
    /// `"succeeded"`, `"transient-failure"` or `"permanent-failure"`.
    pub outcome: &'static str,
}

/// A completed clock switch, with the penalty the dynamic clock charged.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSwitchEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which the switch happened.
    pub interval: u64,
    /// Configuration index before the switch.
    pub from: usize,
    /// Configuration index after the switch.
    pub to: usize,
    /// Switch penalty charged, in nanoseconds.
    pub penalty_ns: f64,
    /// Clock period after the switch, in nanoseconds.
    pub period_ns: f64,
}

/// A configuration entering quarantine after repeated switch failures.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which quarantine began.
    pub interval: u64,
    /// The quarantined configuration.
    pub config: usize,
    /// Whether the configuration is permanently dead (no probation).
    pub permanent: bool,
}

/// A quarantined configuration being released for a probation re-probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbationEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which probation was granted.
    pub interval: u64,
    /// The configuration released from quarantine.
    pub config: usize,
}

/// The thrash watchdog (or total quarantine) forcing safe-mode fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct SafeModeEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number at which safe mode engaged.
    pub interval: u64,
    /// The configuration the manager parks in.
    pub safe_config: usize,
}

/// One raw instruction-interval sample from the out-of-order core model.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number within the managed run.
    pub interval: u64,
    /// Cycles the core spent on the interval.
    pub cycles: u64,
    /// Instructions committed in the interval.
    pub insts: u64,
}

/// One cache-hierarchy simulation interval.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSimEvent {
    /// Run label, if one was attached.
    pub app: Option<String>,
    /// 1-based interval number within the managed run.
    pub interval: u64,
    /// References simulated in the interval.
    pub refs: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Misses to memory.
    pub misses: u64,
}

/// Per-batch counters from one `Pool::ordered_map` dispatch.
///
/// The only event whose content depends on OS scheduling (steal counts and
/// the per-worker split vary run to run); it is emitted for tuning the pool
/// and deliberately kept out of every report.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolBatchEvent {
    /// Worker threads the batch ran on.
    pub jobs: usize,
    /// Tasks in the batch.
    pub tasks: u64,
    /// Tasks executed by each worker, indexed by worker id.
    pub executed: Vec<u64>,
    /// Tasks obtained by stealing from a sibling's deque.
    pub steals: u64,
}

/// A result-cache lookup by the sweep engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheProbeEvent {
    /// Experiment kind (cache-curve, queue-curve, interval-series, …).
    pub kind: String,
    /// Application the probe was for.
    pub app: String,
    /// `"hit"`, `"miss"`, `"invalid"` (corrupt entry) or `"collision"`.
    pub outcome: &'static str,
}

/// A result-cache store by the sweep engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheStoreEvent {
    /// Experiment kind.
    pub kind: String,
    /// Application the entry was computed for.
    pub app: String,
    /// Whether the atomic write succeeded.
    pub ok: bool,
}

/// A leg-journal interaction: a completed leg committed to the journal,
/// or a journaled leg replayed instead of recomputed (`--resume`).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalLegEvent {
    /// The leg's canonical key.
    pub leg: String,
    /// `"appended"` (committed after computing) or `"replayed"`.
    pub action: &'static str,
}

/// A cache entry moved to `quarantine/` after failing verification.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheQuarantineEvent {
    /// Experiment kind the probe was for.
    pub kind: String,
    /// Application the probe was for.
    pub app: String,
    /// Why the entry was quarantined: `"invalid"` or `"corrupt"`.
    pub outcome: &'static str,
}

/// A leg abandoned by the watchdog after exhausting its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LegTimeoutEvent {
    /// The leg's stable label.
    pub leg: String,
    /// Attempts made (first try + retries) before giving up.
    pub attempts: u32,
    /// The per-attempt deadline, in milliseconds.
    pub timeout_ms: u64,
}

/// A structured trace event.
///
/// Serialized via [`Event::write_json`] as one JSON object per line, tagged
/// by the `"ev"` field (see [`Event::kind`] for the tag values).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Per-interval manager decision.
    Decision(DecisionEvent),
    /// Switch attempt outcome reported to the manager.
    SwitchResult(SwitchResultEvent),
    /// Completed clock switch with charged penalty.
    ClockSwitch(ClockSwitchEvent),
    /// Configuration quarantined.
    Quarantine(QuarantineEvent),
    /// Configuration released on probation.
    Probation(ProbationEvent),
    /// Safe-mode fallback engaged.
    SafeMode(SafeModeEvent),
    /// Periodic pattern detected and acted on.
    Pattern(PatternEvent),
    /// Raw core interval sample.
    Sample(SampleEvent),
    /// Cache-hierarchy interval simulated.
    CacheSim(CacheSimEvent),
    /// Pool batch counters.
    PoolBatch(PoolBatchEvent),
    /// Result-cache probe.
    CacheProbe(CacheProbeEvent),
    /// Result-cache store.
    CacheStore(CacheStoreEvent),
    /// Leg journal append or replay.
    JournalLeg(JournalLegEvent),
    /// Cache entry quarantined.
    CacheQuarantine(CacheQuarantineEvent),
    /// Leg abandoned as timed out.
    LegTimeout(LegTimeoutEvent),
}

/// Incremental single-object JSON writer over the vendored serde primitives.
struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        serde::write_json_string(self.out, key);
        self.out.push(':');
        value.json_into(self.out);
        self
    }

    fn finish(self) {
        self.out.push('}');
    }
}

impl Event {
    /// Stable kind tag written as the `"ev"` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Decision(_) => "decision",
            Event::SwitchResult(_) => "switch-result",
            Event::ClockSwitch(_) => "clock-switch",
            Event::Quarantine(_) => "quarantine",
            Event::Probation(_) => "probation",
            Event::SafeMode(_) => "safe-mode",
            Event::Pattern(_) => "pattern-detect",
            Event::Sample(_) => "sample",
            Event::CacheSim(_) => "cache-sim",
            Event::PoolBatch(_) => "pool-batch",
            Event::CacheProbe(_) => "result-cache-probe",
            Event::CacheStore(_) => "result-cache-store",
            Event::JournalLeg(_) => "journal-leg",
            Event::CacheQuarantine(_) => "cache-quarantine",
            Event::LegTimeout(_) => "leg-timeout",
        }
    }

    /// Append this event as a single-line JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let mut obj = Obj::new(out);
        obj.field("ev", self.kind());
        match self {
            Event::Decision(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("config", &e.config)
                    .field("raw_tpi_ns", &e.raw_tpi_ns)
                    .field("sanitized_tpi_ns", &e.sanitized_tpi_ns)
                    .field("estimate_ns", &e.estimate_ns)
                    .field("predicted", &e.predicted)
                    .field("confidence", &e.confidence)
                    .field("reason", e.reason)
                    .field("policy", e.policy)
                    .field("target", &e.target);
            }
            Event::SwitchResult(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("target", &e.target)
                    .field("outcome", e.outcome);
            }
            Event::ClockSwitch(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("from", &e.from)
                    .field("to", &e.to)
                    .field("penalty_ns", &e.penalty_ns)
                    .field("period_ns", &e.period_ns);
            }
            Event::Quarantine(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("config", &e.config)
                    .field("permanent", &e.permanent);
            }
            Event::Probation(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("config", &e.config);
            }
            Event::SafeMode(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("safe_config", &e.safe_config);
            }
            Event::Pattern(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("config", &e.config)
                    .field("confidence", &e.confidence)
                    .field("period", &e.period);
            }
            Event::Sample(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("cycles", &e.cycles)
                    .field("insts", &e.insts);
            }
            Event::CacheSim(e) => {
                obj.field("app", &e.app)
                    .field("interval", &e.interval)
                    .field("refs", &e.refs)
                    .field("l1_hits", &e.l1_hits)
                    .field("l2_hits", &e.l2_hits)
                    .field("misses", &e.misses);
            }
            Event::PoolBatch(e) => {
                obj.field("jobs", &e.jobs)
                    .field("tasks", &e.tasks)
                    .field("executed", &e.executed)
                    .field("steals", &e.steals);
            }
            Event::CacheProbe(e) => {
                obj.field("kind", e.kind.as_str())
                    .field("app", e.app.as_str())
                    .field("outcome", e.outcome);
            }
            Event::CacheStore(e) => {
                obj.field("kind", e.kind.as_str())
                    .field("app", e.app.as_str())
                    .field("ok", &e.ok);
            }
            Event::JournalLeg(e) => {
                obj.field("leg", e.leg.as_str()).field("action", e.action);
            }
            Event::CacheQuarantine(e) => {
                obj.field("kind", e.kind.as_str())
                    .field("app", e.app.as_str())
                    .field("outcome", e.outcome);
            }
            Event::LegTimeout(e) => {
                obj.field("leg", e.leg.as_str())
                    .field("attempts", &e.attempts)
                    .field("timeout_ms", &e.timeout_ms);
            }
        }
        obj.finish();
    }

    /// This event as a single-line JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_event_round_trips_through_vendored_parser() {
        let ev = Event::Decision(DecisionEvent {
            app: Some("radar".into()),
            interval: 7,
            config: 2,
            raw_tpi_ns: 1.25,
            sanitized_tpi_ns: Some(1.25),
            estimate_ns: Some(1.5),
            predicted: None,
            confidence: 3,
            reason: "hold",
            policy: "confidence",
            target: None,
        });
        let line = ev.to_json();
        let v = serde_json::from_str(&line).expect("event JSON parses");
        assert_eq!(v.get("ev").and_then(|x| x.as_str()), Some("decision"));
        assert_eq!(v.get("app").and_then(|x| x.as_str()), Some("radar"));
        assert_eq!(v.get("interval").and_then(|x| x.as_u64()), Some(7));
        assert_eq!(v.get("confidence").and_then(|x| x.as_u64()), Some(3));
        assert_eq!(v.get("raw_tpi_ns").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(v.get("policy").and_then(|x| x.as_str()), Some("confidence"));
        assert!(v.get("target").is_some());
    }

    #[test]
    fn non_finite_samples_encode_as_null() {
        let ev = Event::Decision(DecisionEvent {
            app: None,
            interval: 1,
            config: 0,
            raw_tpi_ns: f64::NAN,
            sanitized_tpi_ns: None,
            estimate_ns: None,
            predicted: None,
            confidence: 0,
            reason: "hold",
            policy: "confidence",
            target: None,
        });
        let line = ev.to_json();
        assert!(line.contains("\"raw_tpi_ns\":null"), "{line}");
        serde_json::from_str(&line).expect("still valid JSON");
    }

    #[test]
    fn every_kind_serializes_to_parseable_json() {
        let events = vec![
            Event::SwitchResult(SwitchResultEvent {
                app: Some("a".into()),
                interval: 1,
                target: 2,
                outcome: "succeeded",
            }),
            Event::ClockSwitch(ClockSwitchEvent {
                app: Some("a".into()),
                interval: 1,
                from: 0,
                to: 2,
                penalty_ns: 10.0,
                period_ns: 4.0,
            }),
            Event::Quarantine(QuarantineEvent {
                app: None,
                interval: 3,
                config: 1,
                permanent: false,
            }),
            Event::Probation(ProbationEvent {
                app: None,
                interval: 9,
                config: 1,
            }),
            Event::SafeMode(SafeModeEvent {
                app: None,
                interval: 4,
                safe_config: 0,
            }),
            Event::Pattern(PatternEvent {
                app: Some("a".into()),
                interval: 12,
                config: 3,
                confidence: 0.9,
                period: 6,
            }),
            Event::Sample(SampleEvent {
                app: Some("a".into()),
                interval: 2,
                cycles: 100,
                insts: 250,
            }),
            Event::CacheSim(CacheSimEvent {
                app: Some("a".into()),
                interval: 2,
                refs: 1000,
                l1_hits: 800,
                l2_hits: 150,
                misses: 50,
            }),
            Event::PoolBatch(PoolBatchEvent {
                jobs: 4,
                tasks: 12,
                executed: vec![3, 3, 3, 3],
                steals: 2,
            }),
            Event::CacheProbe(CacheProbeEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                outcome: "hit",
            }),
            Event::CacheStore(CacheStoreEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                ok: true,
            }),
            Event::JournalLeg(JournalLegEvent {
                leg: "cache-sweep|radar|smoke|seed=0x1|L1 8..64KB x8|v1".into(),
                action: "replayed",
            }),
            Event::CacheQuarantine(CacheQuarantineEvent {
                kind: "cache-curve".into(),
                app: "radar".into(),
                outcome: "corrupt",
            }),
            Event::LegTimeout(LegTimeoutEvent {
                leg: "queue-sweep|gcc|point=3".into(),
                attempts: 3,
                timeout_ms: 500,
            }),
        ];
        for ev in events {
            let line = ev.to_json();
            let v = serde_json::from_str(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(v.get("ev").and_then(|x| x.as_str()), Some(ev.kind()));
            assert!(!line.contains('\n'));
        }
    }
}
