//! Differential tests of the typed decoders against the tree walks they
//! replaced.
//!
//! `metric::decode_sets`, `ExperimentOutput::decode`, the cache loader,
//! the service client's `unit` decoder and the readers the service's
//! body table generates read JSON straight from tokens. The functions in
//! [`oracle`] are the previous readers — parse into a `JsonValue` tree,
//! then look members up — kept as the reference. Generated `MetricSet`s
//! go through `sets_to_json`, `unit_line` and saved cache files, and
//! generated bodies through the daemon's response writer, then through
//! member shuffles, unknown and repeated members and malformed edits.
//! Both readers must accept or reject alike and agree on everything they
//! accept. Two differences are allowed:
//!
//! - the typed decoders reject a `Float` or power-context value that
//!   parses to ±infinity, which the tree walks let through;
//! - the body readers require every member the table declares, so they
//!   reject a missing or mistyped member the tree walks never read:
//!   [`NEWLY_REQUIRED`].
//!
//! The typed decoders predict each member's key from the emitter's
//! order and fall back to a general key read when the prediction
//! misses. Edits made through a tree are re-emitted in the emitter's
//! spelling, so a second group edits the bytes instead: whitespace
//! between tokens, a key character written as a `\u00XX` escape, a key
//! that extends or prefixes a known one, truncation and a replaced byte.
//!
//! A decoded output derives its canonical JSON on first read, not in the
//! decoder. The last group of tests pins what that read returns: the
//! emitter's bytes for the decoded sets, whatever the input's spelling,
//! the same bytes on every clone, and an equality that still tells `0.0`
//! from `-0.0`.

use crate::cache::{decode_document, CacheStats, ResultCache};
use crate::engine::UnitSource;
use crate::plan::UnitKey;
use crate::report::UnitReport;
use crate::service::{
    body_line, decode_served_unit, read_body, read_terminal, unit_line, BusyBody, CancelAck,
    CancelAckBody, DoneBody, HealthReport, LostUnit, ServiceError, ServiceGauges, ServiceStats,
    ServiceSummary, WireValue,
};
use oranges::experiments::ExperimentOutput;
use oranges_harness::envelope::Response;
use oranges_harness::json::{self, JsonValue, Tokenizer, MAX_DEPTH};
use oranges_harness::metric::{self, MetricSet, MetricValue, PowerContext};
use proptest::prelude::*;
use proptest::test_runner::{TestCaseError, TestRng};
use std::sync::Arc;
use std::time::Duration;

/// The readers the typed decoders replaced, as they were.
mod oracle {
    use super::*;
    use oranges_harness::metric::{Metric, Provenance};

    fn optional_string(value: Option<&JsonValue>) -> Result<Option<String>, String> {
        match value {
            None | Some(JsonValue::Null) => Ok(None),
            Some(JsonValue::String(s)) => Ok(Some(s.clone())),
            Some(other) => Err(format!("expected string or null, got {other:?}")),
        }
    }

    fn required_str<'a>(object: &'a JsonValue, key: &str) -> Result<&'a str, String> {
        object
            .get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string field '{key}'"))
    }

    fn metric_value(value: &JsonValue) -> Result<MetricValue, String> {
        let object = match value {
            JsonValue::Object(fields) if fields.len() == 1 => &fields[0],
            _ => return Err("metric value is not a variant object".into()),
        };
        match (object.0.as_str(), &object.1) {
            ("Float", JsonValue::Number(v)) => Ok(MetricValue::Float(v.as_f64())),
            ("Int", JsonValue::Number(v)) => v
                .as_i64()
                .map(MetricValue::Int)
                .ok_or_else(|| format!("Int value {v:?} is not an exact i64")),
            ("Bool", JsonValue::Bool(b)) => Ok(MetricValue::Bool(*b)),
            ("Text", JsonValue::String(s)) => Ok(MetricValue::Text(s.clone())),
            (variant, _) => Err(format!("bad metric value variant '{variant}'")),
        }
    }

    pub fn set(value: &JsonValue) -> Result<MetricSet, String> {
        let provenance = value.get("provenance").ok_or("set is missing provenance")?;
        let power = match provenance.get("power") {
            None | Some(JsonValue::Null) => None,
            Some(context) => {
                let field = |key: &str| {
                    context
                        .get(key)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("power context is missing '{key}'"))
                };
                Some(PowerContext {
                    package_watts: field("package_watts")?,
                    energy_j: field("energy_j")?,
                    window_s: field("window_s")?,
                    dvfs_cap: field("dvfs_cap")?,
                })
            }
        };
        let metrics = value
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("set is missing metrics array")?
            .iter()
            .map(|m| {
                let unit = required_str(m, "unit")?;
                if unit.is_empty() {
                    return Err("metric unit label was dropped".to_string());
                }
                Ok(Metric {
                    name: required_str(m, "name")?.to_string(),
                    value: metric_value(m.get("value").ok_or("metric is missing value")?)?,
                    unit: unit.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MetricSet {
            provenance: Provenance {
                experiment: required_str(provenance, "experiment")?.to_string(),
                chip: optional_string(provenance.get("chip"))?,
                params: required_str(provenance, "params")?.to_string(),
                wall_time_s: None,
                power,
            },
            implementation: optional_string(value.get("implementation"))?,
            n: match value.get("n") {
                None | Some(JsonValue::Null) => None,
                Some(JsonValue::Number(v)) => {
                    Some(v.as_u64().ok_or_else(|| format!("n {v:?} is not a u64"))?)
                }
                Some(other) => return Err(format!("bad n field {other:?}")),
            },
            metrics,
        })
    }

    pub fn sets(text: &str) -> Result<Vec<MetricSet>, String> {
        let document = json::parse(text).map_err(|e| e.to_string())?;
        document
            .as_array()
            .ok_or("document is not an array of sets")?
            .iter()
            .map(set)
            .collect()
    }

    pub fn output(value: &JsonValue) -> Result<ExperimentOutput, String> {
        let sets = value
            .get("sets")
            .and_then(JsonValue::as_array)
            .ok_or("output has no sets array")?
            .iter()
            .map(set)
            .collect::<Result<Vec<MetricSet>, _>>()?;
        let rendered = match value.get("rendered") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::String(s)) => Some(s.clone()),
            Some(other) => return Err(format!("bad rendered field {other:?}")),
        };
        let mut output = ExperimentOutput::from_sets(sets, rendered).map_err(|e| e.to_string())?;
        if let Some(wall) = value.get("wall_time_s").and_then(JsonValue::as_f64) {
            output.stamp_wall_time(wall);
        }
        Ok(output)
    }

    /// `Response::from_line` as a tree: the id, kind, error and the whole
    /// parsed line.
    pub fn envelope(line: &str) -> Result<(u64, String, Option<String>, JsonValue), String> {
        let value = json::parse(line.trim_end_matches(['\n', '\r'])).map_err(|e| e.to_string())?;
        if !matches!(value, JsonValue::Object(_)) {
            return Err("envelope line is not an object".into());
        }
        let error = match value.get("error") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::String(message)) => Some(message.clone()),
            Some(other) => return Err(format!("response 'error' is not a string: {other:?}")),
        };
        let id = value
            .get("id")
            .and_then(JsonValue::as_u64)
            .ok_or("envelope has no integer 'id'")?;
        let kind = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("response has no string 'kind'")?
            .to_string();
        Ok((id, kind, error, value))
    }

    /// [`envelope`], then `parse_served_unit`.
    pub fn unit_line(line: &str) -> Result<Unit, String> {
        let (id, kind, error, value) = envelope(line)?;
        let body = value.get("body").ok_or("unit has no body")?;
        let str_field = |name: &str| {
            body.get(name)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("unit body has no '{name}'"))
        };
        let output = output(body)?;
        let source = UnitSource::parse(str_field("source")?).ok_or("unknown 'source'")?;
        let from_cache = body
            .get("from_cache")
            .and_then(JsonValue::as_bool)
            .ok_or("unit body has no 'from_cache'")?;
        if from_cache != source.from_cache() {
            return Err("unit body contradicts itself".into());
        }
        Ok(Unit {
            id,
            kind,
            error,
            index: body
                .get("index")
                .and_then(JsonValue::as_u64)
                .ok_or("unit body has no 'index'")? as usize,
            key: UnitKey {
                id: str_field("id")?.to_string(),
                params: str_field("params")?.to_string(),
            },
            source,
            output,
        })
    }

    /// Read member `name` of a `kind` response body with `read`: how the
    /// client read every body but `unit`'s.
    fn member<'a, V>(
        body: &'a JsonValue,
        kind: &str,
        name: &str,
        read: impl FnOnce(&'a JsonValue) -> Option<V>,
    ) -> Result<V, String> {
        let value = body
            .get(name)
            .ok_or_else(|| format!("{kind} body has no '{name}'"))?;
        read(value).ok_or_else(|| format!("{kind} body member '{name}' has the wrong type"))
    }

    /// `parse_cache_body`.
    fn cache(value: &JsonValue) -> Result<CacheStats, String> {
        Ok(CacheStats {
            hits: member(value, "cache", "hits", JsonValue::as_u64)?,
            misses: member(value, "cache", "misses", JsonValue::as_u64)?,
            entries: member(value, "cache", "entries", JsonValue::as_u64)? as usize,
        })
    }

    /// `run_terminal`: the end of a `run` stream.
    pub fn terminal(kind: &str, body: &JsonValue) -> Result<Terminal, String> {
        let int = |name| member(body, kind, name, JsonValue::as_u64);
        let string = |name| member(body, kind, name, JsonValue::as_str).map(str::to_string);
        match kind {
            "done" => Ok(Terminal::Done {
                computed_units: int("computed_units")? as usize,
                coalesced_units: int("coalesced_units")? as usize,
                fingerprint: string("fingerprint")?,
                model_digest: string("model_digest")?,
                cache: member(body, kind, "cache", Some).and_then(cache)?,
            }),
            "busy" => Ok(Terminal::Busy {
                queued: int("queued")?,
                cap: int("cap")?,
            }),
            "cancelled" => Ok(Terminal::Cancelled(string("unit")?)),
            "deadline_exceeded" => Ok(Terminal::DeadlineExceeded(string("unit")?)),
            other => Err(format!("unexpected response kind '{other}' during run")),
        }
    }

    /// `HealthReport::from_body`.
    pub fn health(body: &JsonValue) -> Result<HealthReport, String> {
        Ok(HealthReport {
            ready: member(body, "health", "ready", JsonValue::as_bool)?,
            draining: member(body, "health", "draining", JsonValue::as_bool)?,
            workers_alive: member(body, "health", "workers_alive", JsonValue::as_u64)?,
            workers_configured: member(body, "health", "workers_configured", JsonValue::as_u64)?,
            cache_entries: member(body, "health", "cache_entries", JsonValue::as_u64)?,
            endpoint: member(body, "health", "endpoint", JsonValue::as_str)?.to_string(),
        })
    }

    /// `decode_stats`, with the series as their values in member order.
    pub fn stats(body: &JsonValue) -> Result<Stats, String> {
        Ok(Stats {
            cache: member(body, "stats", "cache", Some).and_then(cache)?,
            model_digest: member(body, "stats", "model_digest", JsonValue::as_str)?.to_string(),
            series: ServiceSummary::default()
                .members()
                .into_iter()
                .chain(ServiceGauges::default().members())
                .map(|(name, _)| member(body, "stats", name, JsonValue::as_u64))
                .collect::<Result<_, _>>()?,
        })
    }

    /// `ServiceClient::cancel`'s reads of the ack.
    pub(crate) fn cancel_ack(body: &JsonValue) -> Result<CancelAck, String> {
        let int = |name| member(body, "cancelled", name, JsonValue::as_u64);
        Ok(CancelAck {
            active: member(body, "cancelled", "active", JsonValue::as_bool)?,
            waiters_cancelled: int("waiters_cancelled")?,
            jobs_abandoned: int("jobs_abandoned")?,
        })
    }

    /// `ResultCache::load_checked` over a parsed tree. Every entry of a
    /// current-format file is decoded, kept or not.
    pub fn load(text: &str) -> Result<Load, String> {
        let document = json::parse(text).map_err(|e| e.to_string())?;
        let version = document
            .get("version")
            .and_then(JsonValue::as_f64)
            .ok_or("missing version field")?;
        let entries = document
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("missing entries array")?;
        if version as u32 != 2 {
            return Ok(Load {
                invalidated: entries.len(),
                file_digest: format!("format-v{}", version as u32),
                decoded: Vec::new(),
            });
        }
        let file_digest = document
            .get("model_digest")
            .and_then(JsonValue::as_str)
            .ok_or("missing model_digest field")?
            .to_string();
        let decoded = entries
            .iter()
            .map(|entry| {
                let field = |key: &str| {
                    entry
                        .get(key)
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("entry is missing string field '{key}'"))
                };
                let key = UnitKey {
                    id: field("id")?.to_string(),
                    params: field("params")?.to_string(),
                };
                Ok((key, output(entry)?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let current = file_digest == oranges::paper::model_constants_digest();
        Ok(Load {
            invalidated: if current { 0 } else { entries.len() },
            file_digest,
            decoded,
        })
    }
}

/// A decoded `unit` line.
#[derive(Debug)]
struct Unit {
    id: u64,
    kind: String,
    error: Option<String>,
    index: usize,
    key: UnitKey,
    source: UnitSource,
    output: ExperimentOutput,
}

impl PartialEq for Unit {
    fn eq(&self, other: &Self) -> bool {
        (
            self.id,
            &self.kind,
            &self.error,
            self.index,
            &self.key,
            self.source,
        ) == (
            other.id,
            &other.kind,
            &other.error,
            other.index,
            &other.key,
            other.source,
        ) && self.output == other.output
    }
}

fn typed_unit_line(line: &str) -> Result<Unit, String> {
    let (response, unit) = Response::decode_line(line, |_, tokens| decode_served_unit(tokens))
        .map_err(|e| e.to_string())?;
    let unit = unit.ok_or("unit has no body")?;
    Ok(Unit {
        id: response.id,
        kind: response.kind,
        error: response.error,
        index: unit.index,
        key: unit.key,
        source: unit.source,
        output: unit.output,
    })
}

/// How a `run` stream ended, as the client reports it.
#[derive(Debug, PartialEq)]
enum Terminal {
    Done {
        computed_units: usize,
        coalesced_units: usize,
        fingerprint: String,
        model_digest: String,
        cache: CacheStats,
    },
    Busy {
        queued: u64,
        cap: u64,
    },
    Cancelled(String),
    DeadlineExceeded(String),
}

/// A decoded `stats` body, its series as values in member order.
#[derive(Debug, PartialEq)]
struct Stats {
    cache: CacheStats,
    model_digest: String,
    series: Vec<u64>,
}

/// The members the body readers require that the tree walks never read.
const NEWLY_REQUIRED: [&str; 4] = ["units", "wall_s", "needed", "token"];

/// The body readers the client runs, by what a line answers.
#[derive(Debug, Clone, Copy)]
enum Reader {
    /// The end of a `run` stream: `done`, `busy`, `cancelled` or
    /// `deadline_exceeded`.
    Terminal,
    Health,
    Stats,
    CancelAck,
}

/// What the client reports for a response line's body, however it was
/// read.
#[derive(Debug, PartialEq)]
enum Answer {
    Terminal(Terminal),
    Health(HealthReport),
    Stats(Stats),
    CancelAck(CancelAck),
}

/// The envelope and the body the client reports for `line`, read with
/// the typed readers.
fn typed_answer(
    line: &str,
    reader: Reader,
) -> Result<(u64, String, Option<String>, Answer), String> {
    let (response, answer) =
        Response::decode_line(line, |kind, tokens| typed_body(reader, kind, tokens))
            .map_err(|e| e.to_string())?;
    let answer = answer.ok_or_else(|| format!("{} has no body", response.kind))?;
    Ok((response.id, response.kind, response.error, answer))
}

fn typed_body(
    reader: Reader,
    kind: &str,
    tokens: &mut Tokenizer<'_>,
) -> Result<Answer, ServiceError> {
    Ok(match reader {
        Reader::Terminal => Answer::Terminal(match read_terminal(kind, tokens)? {
            Ok(done) => Terminal::Done {
                computed_units: done.computed_units,
                coalesced_units: done.coalesced_units,
                fingerprint: done.fingerprint,
                model_digest: done.model_digest,
                cache: done.cache,
            },
            Err(ServiceError::Busy { queued, cap }) => Terminal::Busy { queued, cap },
            Err(ServiceError::Cancelled(unit)) => Terminal::Cancelled(unit),
            Err(ServiceError::DeadlineExceeded(unit)) => Terminal::DeadlineExceeded(unit),
            Err(other) => return Err(other),
        }),
        Reader::Health => Answer::Health(read_body(tokens, kind)?),
        Reader::Stats => {
            let stats: ServiceStats = read_body(tokens, kind)?;
            Answer::Stats(Stats {
                cache: stats.cache,
                model_digest: stats.model_digest,
                series: [stats.summary.values(), stats.gauges.values()].concat(),
            })
        }
        Reader::CancelAck => {
            let ack: CancelAckBody = read_body(tokens, kind)?;
            Answer::CancelAck(CancelAck {
                active: ack.active,
                waiters_cancelled: ack.waiters_cancelled,
                jobs_abandoned: ack.jobs_abandoned,
            })
        }
    })
}

/// The same, read as a tree with the [`oracle`] readers.
fn oracle_answer(
    line: &str,
    reader: Reader,
) -> Result<(u64, String, Option<String>, Answer), String> {
    let (id, kind, error, value) = oracle::envelope(line)?;
    let body = value
        .get("body")
        .ok_or_else(|| format!("{kind} has no body"))?;
    let answer = match reader {
        Reader::Terminal => Answer::Terminal(oracle::terminal(&kind, body)?),
        Reader::Health => Answer::Health(oracle::health(body)?),
        Reader::Stats => Answer::Stats(oracle::stats(body)?),
        Reader::CancelAck => Answer::CancelAck(oracle::cancel_ack(body)?),
    };
    Ok((id, kind, error, answer))
}

fn compare_answers(line: &str, reader: Reader) -> Result<(), TestCaseError> {
    agree(
        line,
        typed_answer(line, reader),
        oracle_answer(line, reader),
        |error, _| {
            NEWLY_REQUIRED
                .iter()
                .any(|name| error.contains(&format!("'{name}'")))
        },
    )
}

/// A decoded cache document.
#[derive(Debug)]
struct Load {
    invalidated: usize,
    file_digest: String,
    /// The oracle's decoded entries, in file order.
    decoded: Vec<(UnitKey, ExperimentOutput)>,
}

/// Whether decoded sets hold a value that parsed to ±infinity.
fn non_finite(sets: &[MetricSet]) -> bool {
    sets.iter().any(|set| {
        let power = set.provenance.power.is_some_and(|p| {
            [p.package_watts, p.energy_j, p.window_s, p.dvfs_cap]
                .iter()
                .any(|v| !v.is_finite())
        });
        power
            || set
                .metrics
                .iter()
                .any(|m| matches!(m.value, MetricValue::Float(v) if !v.is_finite()))
    })
}

/// The agreement rule: equal results, or both rejected, or the typed
/// reader alone rejecting an input for an allowed difference, which
/// `allowed` judges from the typed reader's error and the oracle's value.
fn agree<T: std::fmt::Debug + PartialEq>(
    input: &str,
    typed: Result<T, String>,
    oracle: Result<T, String>,
    allowed: impl Fn(&str, &T) -> bool,
) -> Result<(), TestCaseError> {
    match (&typed, &oracle) {
        (Ok(a), Ok(b)) => prop_assert!(a == b, "{a:?} != {b:?} for {input}"),
        (Err(_), Err(_)) => {}
        (Err(e), Ok(b)) => {
            prop_assert!(allowed(e, b), "only the typed reader rejected {input}: {e}")
        }
        (Ok(_), Err(e)) => prop_assert!(false, "only the oracle rejected {input}: {e}"),
    }
    Ok(())
}

fn compare_loads(text: &str) -> Result<(), TestCaseError> {
    let oracle = oracle::load(text);
    let typed = decode_document(text).map_err(|e| e.to_string());
    let typed = typed.map(|load| {
        let current = oracle
            .as_ref()
            .map(|o| o.decoded.clone())
            .unwrap_or_default();
        // The cache keeps the last of repeated keys, like the store the
        // oracle filled.
        let mut kept = Vec::new();
        for (key, _) in current.iter().rev() {
            if !kept
                .iter()
                .any(|(k, _): &(UnitKey, ExperimentOutput)| k == key)
            {
                if let Some(output) = load.cache.get(key) {
                    kept.push((key.clone(), (*output).clone()));
                }
            }
        }
        kept.reverse();
        (
            load.invalidated,
            load.file_digest,
            load.cache.stats().entries,
            kept,
        )
    });
    let oracle_view = oracle.as_ref().map_err(Clone::clone).map(|o| {
        let mut kept: Vec<(UnitKey, ExperimentOutput)> = Vec::new();
        if o.invalidated == 0 {
            for (key, output) in o.decoded.iter().rev() {
                if !kept.iter().any(|(k, _)| k == key) {
                    kept.push((key.clone(), output.clone()));
                }
            }
        }
        kept.reverse();
        (o.invalidated, o.file_digest.clone(), kept.len(), kept)
    });
    let decoded_non_finite = oracle
        .as_ref()
        .is_ok_and(|o| o.decoded.iter().any(|(_, out)| non_finite(&out.sets)));
    agree(text, typed, oracle_view, |_, _| decoded_non_finite)
}

// ---------------------------------------------------------------------------
// Generators.
// ---------------------------------------------------------------------------

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

fn text(rng: &mut TestRng) -> String {
    (0..rng.below(6))
        .map(|_| {
            pick(
                rng,
                &[
                    'a',
                    'M',
                    '4',
                    '=',
                    ';',
                    ' ',
                    '"',
                    '\\',
                    '\n',
                    '\u{1}',
                    '\u{e9}',
                    '\u{1f600}',
                ],
            )
        })
        .collect()
}

fn finite_float(rng: &mut TestRng) -> f64 {
    let magnitude = pick(rng, &[0.0, 0.1, 1.0, 2900.0, 1e-300, 1e300, f64::MAX]);
    let value = magnitude * (1.0 + rng.unit_f64());
    if value.is_finite() && rng.below(2) == 0 {
        -value
    } else if value.is_finite() {
        value
    } else {
        f64::MAX
    }
}

fn random_set(rng: &mut TestRng) -> MetricSet {
    let (experiment, params) = (pick(rng, &["fig3", "fig4"]), text(rng));
    let mut set = if rng.below(4) == 0 {
        MetricSet::new(experiment, &params)
    } else {
        MetricSet::for_chip(experiment, &params, &text(rng))
    };
    if rng.below(2) == 0 {
        set = set.with_implementation(&text(rng));
    }
    if rng.below(2) == 0 {
        set = set.with_n(pick(rng, &[0, 2048, u64::MAX]));
    }
    if rng.below(2) == 0 {
        set = set.with_power(PowerContext {
            package_watts: finite_float(rng),
            energy_j: finite_float(rng),
            window_s: finite_float(rng),
            dvfs_cap: pick(rng, &[1.0, 0.5]),
        });
    }
    for _ in 0..rng.below(4) {
        let value = match rng.below(4) {
            0 => MetricValue::Float(finite_float(rng)),
            1 => MetricValue::Int(pick(rng, &[0, -7, i64::MIN, i64::MAX])),
            2 => MetricValue::Bool(rng.below(2) == 0),
            _ => MetricValue::Text(text(rng)),
        };
        set.metrics.push(metric::Metric {
            name: text(rng),
            value,
            unit: format!("u{}", text(rng)),
        });
    }
    set
}

fn random_output(rng: &mut TestRng) -> ExperimentOutput {
    let sets = (0..rng.below(4)).map(|_| random_set(rng)).collect();
    let rendered = (rng.below(2) == 0).then(|| text(rng));
    let mut output = ExperimentOutput::from_sets(sets, rendered).expect("finite sets serialize");
    if rng.below(2) == 0 {
        output.stamp_wall_time(finite_float(rng).abs());
    }
    output
}

fn random_unit(rng: &mut TestRng) -> UnitReport {
    UnitReport {
        index: rng.below(100) as usize,
        key: UnitKey {
            id: pick(rng, &["fig3", "fig4"]).to_string(),
            params: text(rng),
        },
        source: pick(
            rng,
            &[
                UnitSource::Computed,
                UnitSource::CacheHit,
                UnitSource::Coalesced,
            ],
        ),
        wall: Duration::from_millis(1),
        output: Arc::new(random_output(rng)),
    }
}

/// A random value; containers nest at most `depth` more levels.
fn random_value(rng: &mut TestRng, depth: usize) -> JsonValue {
    match if depth == 0 {
        rng.below(5)
    } else {
        rng.below(7)
    } {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.below(2) == 0),
        2 => json::parse(pick(
            rng,
            &["0", "-3", "1.5", "1e999", "18446744073709551616"],
        ))
        .expect("a number"),
        3 | 4 => JsonValue::String(pick(rng, &["computed", "cache", "x", "Float", ""]).into()),
        5 => JsonValue::Array(
            (0..rng.below(3))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.below(3))
                .map(|_| (text(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// The `index`-th node (in pre-order) that `wanted` selects, with its
/// nesting depth.
fn nth_node<'t>(
    tree: &'t mut JsonValue,
    depth: usize,
    wanted: &dyn Fn(&JsonValue) -> bool,
    index: &mut usize,
) -> Option<(&'t mut JsonValue, usize)> {
    if wanted(tree) {
        if *index == 0 {
            return Some((tree, depth));
        }
        *index -= 1;
    }
    match tree {
        JsonValue::Array(items) => items
            .iter_mut()
            .find_map(|item| nth_node(item, depth + 1, wanted, index)),
        JsonValue::Object(fields) => fields
            .iter_mut()
            .find_map(|(_, value)| nth_node(value, depth + 1, wanted, index)),
        _ => None,
    }
}

fn count_nodes(tree: &JsonValue, wanted: &dyn Fn(&JsonValue) -> bool) -> usize {
    usize::from(wanted(tree))
        + match tree {
            JsonValue::Array(items) => items.iter().map(|i| count_nodes(i, wanted)).sum(),
            JsonValue::Object(fields) => fields.iter().map(|(_, v)| count_nodes(v, wanted)).sum(),
            _ => 0,
        }
}

/// A random node that `wanted` selects, with its depth.
fn random_node<'t>(
    rng: &mut TestRng,
    tree: &'t mut JsonValue,
    wanted: &dyn Fn(&JsonValue) -> bool,
) -> Option<(&'t mut JsonValue, usize)> {
    let count = count_nodes(tree, wanted);
    if count == 0 {
        return None;
    }
    let mut index = rng.below(count as u64) as usize;
    nth_node(tree, 0, wanted, &mut index)
}

fn shuffle(rng: &mut TestRng, tree: &mut JsonValue) {
    match tree {
        JsonValue::Array(items) => items.iter_mut().for_each(|item| shuffle(rng, item)),
        JsonValue::Object(fields) => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.below(i as u64 + 1) as usize);
            }
            fields.iter_mut().for_each(|(_, value)| shuffle(rng, value));
        }
        _ => {}
    }
}

fn is_object(value: &JsonValue) -> bool {
    matches!(value, JsonValue::Object(_))
}

/// Apply one random edit to `text`, a JSON document: shuffle every
/// object's members; add an unknown member (sometimes nested to exactly
/// the depth cap, or one level past it); repeat a member with another
/// value after the original; delete a member; replace any value with a
/// random one; or write `1e999` in place of a number.
fn edit(rng: &mut TestRng, text: &str) -> String {
    let mut tree = json::parse(text.trim_end()).expect("generated documents parse");
    match rng.below(7) {
        0 => {}
        1 => shuffle(rng, &mut tree),
        2 => {
            let depth_choice = rng.below(3);
            let value = random_value(rng, 2);
            let key = format!("unknown_{}", text.len());
            if let Some((JsonValue::Object(fields), depth)) =
                random_node(rng, &mut tree, &is_object)
            {
                // The new member's value sits at `depth + 1`; nest it to
                // the cap, or one level past it.
                let value = match depth_choice {
                    0 => value,
                    extra => (depth + 1..MAX_DEPTH + extra as usize - 1)
                        .fold(JsonValue::Null, |inner, _| JsonValue::Array(vec![inner])),
                };
                let at = rng.below(fields.len() as u64 + 1) as usize;
                fields.insert(at, (key, value));
            }
        }
        3 => {
            let replacement = random_value(rng, 2);
            let keep = rng.below(2) == 0;
            let wanted = |v: &JsonValue| matches!(v, JsonValue::Object(f) if !f.is_empty());
            if let Some((JsonValue::Object(fields), _)) = random_node(rng, &mut tree, &wanted) {
                let original = rng.below(fields.len() as u64) as usize;
                let (key, value) = fields[original].clone();
                let value = if keep { value } else { replacement };
                let at = original + 1 + rng.below((fields.len() - original) as u64) as usize;
                fields.insert(at, (key, value));
            }
        }
        4 => {
            let wanted = |v: &JsonValue| matches!(v, JsonValue::Object(f) if !f.is_empty());
            if let Some((JsonValue::Object(fields), _)) = random_node(rng, &mut tree, &wanted) {
                fields.remove(rng.below(fields.len() as u64) as usize);
            }
        }
        5 => {
            let replacement = random_value(rng, 1);
            if let Some((node, _)) = random_node(rng, &mut tree, &|_| true) {
                *node = replacement;
            }
        }
        _ => {
            let wanted = |v: &JsonValue| matches!(v, JsonValue::Number(_));
            if let Some((node, _)) = random_node(rng, &mut tree, &wanted) {
                *node = json::parse("1e999").expect("a number");
            }
        }
    }
    tree.to_json_string()
}

fn saved_document(rng: &mut TestRng) -> String {
    let digest = if rng.below(4) == 0 {
        "0123456789abcdef".to_string()
    } else {
        oranges::paper::model_constants_digest()
    };
    let cache = ResultCache::with_model_digest(digest);
    for _ in 0..rng.below(4) {
        let key = UnitKey {
            id: pick(rng, &["fig3", "fig4"]).to_string(),
            params: text(rng),
        };
        cache.insert(key, random_output(rng));
    }
    let path = std::env::temp_dir().join(format!(
        "oranges-decode-equivalence-{}-{}.json",
        std::process::id(),
        rng.next_u64()
    ));
    cache.save(&path).expect("finite entries save");
    let text = std::fs::read_to_string(&path).expect("saved text");
    std::fs::remove_file(&path).ok();
    text
}

fn count(rng: &mut TestRng) -> u64 {
    pick(rng, &[0, 1, 7, 2048, u64::MAX])
}

fn random_cache(rng: &mut TestRng) -> CacheStats {
    CacheStats {
        hits: count(rng),
        misses: count(rng),
        entries: count(rng) as usize,
    }
}

/// A response line carrying one of the declared bodies, written by the
/// daemon's writer from random values, and the reader the client runs
/// on it.
fn random_body_line(rng: &mut TestRng) -> (String, Reader) {
    let id = rng.below(1000);
    match rng.below(7) {
        0 => {
            let done = DoneBody {
                units: count(rng) as usize,
                computed_units: count(rng) as usize,
                coalesced_units: count(rng) as usize,
                fingerprint: text(rng),
                model_digest: text(rng),
                wall_s: finite_float(rng).abs(),
                cache: random_cache(rng),
            };
            (body_line(id, "done", &done), Reader::Terminal)
        }
        1 => {
            let busy = BusyBody {
                queued: count(rng) as usize,
                cap: count(rng) as usize,
                needed: count(rng) as usize,
            };
            (body_line(id, "busy", &busy), Reader::Terminal)
        }
        2 | 3 => {
            let kind = pick(rng, &["cancelled", "deadline_exceeded"]);
            (
                body_line(id, kind, &LostUnit { unit: text(rng) }),
                Reader::Terminal,
            )
        }
        4 => {
            let health = HealthReport {
                ready: rng.below(2) == 0,
                draining: rng.below(2) == 0,
                workers_alive: count(rng),
                workers_configured: count(rng),
                cache_entries: count(rng),
                endpoint: text(rng),
            };
            (body_line(id, "health", &health), Reader::Health)
        }
        5 => {
            let (cache, model_digest) = (random_cache(rng), text(rng));
            let stats = stats_with(cache, &model_digest, std::iter::repeat_with(|| count(rng)));
            (body_line(id, "stats", &stats), Reader::Stats)
        }
        _ => {
            let ack = CancelAckBody {
                token: text(rng),
                active: rng.below(2) == 0,
                waiters_cancelled: count(rng),
                jobs_abandoned: count(rng),
            };
            (body_line(id, "cancelled", &ack), Reader::CancelAck)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn typed_bodies_decode_like_the_tree_walk(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let (line, reader) = random_body_line(&mut rng);
        let written = typed_answer(&line, reader).expect("a written body decodes");
        prop_assert_eq!(Ok(written), oracle_answer(&line, reader));
        compare_answers(&(edit(&mut rng, &line) + "\n"), reader)?;
    }

    #[test]
    fn typed_sets_decode_like_the_tree_walk(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let sets: Vec<MetricSet> = (0..rng.below(4)).map(|_| random_set(&mut rng)).collect();
        let text = metric::sets_to_json(&sets).expect("finite sets serialize");
        prop_assert_eq!(metric::sets_from_json(&text), Ok(sets));
        let text = edit(&mut rng, &text);
        let typed = metric::sets_from_json(&text).map_err(|e| e.to_string());
        agree(&text, typed, oracle::sets(&text), |_, sets| non_finite(sets))?;
    }

    #[test]
    fn typed_unit_lines_decode_like_the_tree_walk(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let unit = random_unit(&mut rng);
        let line = unit_line(rng.below(1000), &unit);
        let decoded = typed_unit_line(&line).expect("a unit line decodes");
        prop_assert_eq!(&decoded.output, &*unit.output);
        prop_assert_eq!(&decoded.key, &unit.key);
        let line = edit(&mut rng, &line) + "\n";
        agree(
            &line,
            typed_unit_line(&line),
            oracle::unit_line(&line),
            |_, unit| non_finite(&unit.output.sets),
        )?;
    }

    #[test]
    fn typed_cache_documents_load_like_the_tree_walk(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let text = saved_document(&mut rng);
        compare_loads(&text)?;
        compare_loads(&edit(&mut rng, &text))?;
    }
}

/// A `stats` body whose series hold `values`, in member order.
pub(crate) fn stats_with(
    cache: CacheStats,
    model_digest: &str,
    values: impl IntoIterator<Item = u64>,
) -> ServiceStats {
    let mut stats = ServiceStats {
        cache,
        model_digest: model_digest.to_string(),
        ..ServiceStats::default()
    };
    let series = stats.summary.members_mut().into_iter();
    for ((_, slot), value) in series.chain(stats.gauges.members_mut()).zip(values) {
        let text = value.to_string();
        assert!(slot
            .read(&mut Tokenizer::new(&text), "stats")
            .expect("a number"));
    }
    stats
}

/// `line` with one body member (at `path`: its index, then the index
/// inside an object member) dropped, or its value replaced by one of
/// another type.
fn edit_member(line: &str, path: &[usize], drop: bool) -> String {
    fn members(value: &mut JsonValue) -> &mut Vec<(String, JsonValue)> {
        match value {
            JsonValue::Object(members) => members,
            other => panic!("{other:?} is not an object"),
        }
    }
    let mut tree = json::parse(line.trim_end()).expect("written lines parse");
    let (member, outer) = path.split_last().expect("a member path");
    // The body is the envelope's last member.
    let mut object = members(&mut members(&mut tree).last_mut().expect("a body").1);
    for &index in outer {
        object = members(&mut object[index].1);
    }
    if drop {
        object.remove(*member);
    } else {
        let value = &mut object[*member].1;
        *value = match *value {
            JsonValue::String(_) => JsonValue::Bool(true),
            _ => JsonValue::String("7".to_string()),
        };
    }
    tree.to_json_string() + "\n"
}

/// The `kind` line the daemon writes for `body` decodes to `expected`,
/// with the tree walk and with the client's reader; and once any member,
/// or a member of an object member, is dropped or given a value of
/// another type, the client's reader rejects it, naming that member.
fn decodes_strictly(
    kind: &str,
    body: &impl WireValue,
    reader: Reader,
    expected: Answer,
) -> Result<(), TestCaseError> {
    let line = body_line(2, kind, body);
    let typed = typed_answer(&line, reader).map(|(.., answer)| answer);
    let oracle = oracle_answer(&line, reader).map(|(.., answer)| answer);
    prop_assert_eq!(&typed, &oracle);
    prop_assert_eq!(typed, Ok(expected));
    let tree = json::parse(line.trim_end()).expect("written lines parse");
    let Some(JsonValue::Object(members)) = tree.get("body") else {
        panic!("{line} has no object body");
    };
    let mut paths = Vec::new();
    for (index, (name, value)) in members.iter().enumerate() {
        paths.push((vec![index], name));
        if let JsonValue::Object(inner) = value {
            paths.extend((0..inner.len()).map(|at| (vec![index, at], &inner[at].0)));
        }
    }
    for (path, name) in paths {
        for drop in [true, false] {
            let edited = edit_member(&line, &path, drop);
            let error = typed_answer(&edited, reader).expect_err("a strict reader");
            prop_assert!(
                error.contains(&format!("'{name}'")),
                "{}: {}",
                edited,
                error
            );
        }
    }
    Ok(())
}

const CACHE: CacheStats = CacheStats {
    hits: 5,
    misses: 2,
    entries: 2,
};

#[test]
fn done_and_stats_bodies_decode_strictly() -> Result<(), TestCaseError> {
    let done = DoneBody {
        units: 1,
        computed_units: 1,
        coalesced_units: 0,
        fingerprint: "10fadd834fccef58".to_string(),
        model_digest: "b2d98ac9c92d8c4e".to_string(),
        wall_s: 0.000715732,
        cache: CACHE,
    };
    let expected = Terminal::Done {
        computed_units: 1,
        coalesced_units: 0,
        fingerprint: done.fingerprint.clone(),
        model_digest: done.model_digest.clone(),
        cache: CACHE,
    };
    decodes_strictly("done", &done, Reader::Terminal, Answer::Terminal(expected))?;
    let stats = stats_with(CACHE, &done.model_digest, 1..);
    let expected = Stats {
        cache: CACHE,
        model_digest: done.model_digest,
        series: (1..=24).collect(),
    };
    decodes_strictly("stats", &stats, Reader::Stats, Answer::Stats(expected))
}

#[test]
fn busy_terminals_decode_strictly() -> Result<(), TestCaseError> {
    let busy = BusyBody {
        queued: 1,
        cap: 2,
        needed: 4,
    };
    let expected = Terminal::Busy { queued: 1, cap: 2 };
    decodes_strictly("busy", &busy, Reader::Terminal, Answer::Terminal(expected))
}

#[test]
fn cancelled_terminals_decode_strictly() -> Result<(), TestCaseError> {
    let lost = LostUnit {
        unit: "fig4[chip=M1]".to_string(),
    };
    let expected = Terminal::Cancelled(lost.unit.clone());
    decodes_strictly(
        "cancelled",
        &lost,
        Reader::Terminal,
        Answer::Terminal(expected),
    )?;
    // The ack to a `cancel` request is a `cancelled` line too.
    let ack = CancelAckBody {
        token: "run-7".to_string(),
        active: true,
        waiters_cancelled: 3,
        jobs_abandoned: 2,
    };
    let expected = CancelAck {
        active: true,
        waiters_cancelled: 3,
        jobs_abandoned: 2,
    };
    decodes_strictly(
        "cancelled",
        &ack,
        Reader::CancelAck,
        Answer::CancelAck(expected),
    )
}

#[test]
fn deadline_exceeded_terminals_decode_strictly() -> Result<(), TestCaseError> {
    let lost = LostUnit {
        unit: "fig4[chip=M1]".to_string(),
    };
    let expected = Terminal::DeadlineExceeded(lost.unit.clone());
    decodes_strictly(
        "deadline_exceeded",
        &lost,
        Reader::Terminal,
        Answer::Terminal(expected),
    )
}

#[test]
fn health_body_round_trips_through_the_client_parser() -> Result<(), TestCaseError> {
    let endpoint = "unix:/tmp/oranges.sock".parse().expect("an endpoint");
    let report = HealthReport::of(true, 2, 4, 7, &endpoint);
    decodes_strictly(
        "health",
        &report,
        Reader::Health,
        Answer::Health(report.clone()),
    )
}

#[test]
fn envelope_and_document_members_may_come_in_any_order() {
    let mut rng = TestRng::new(7);
    let unit = random_unit(&mut rng);
    let line = unit_line(5, &unit);
    let reference = typed_unit_line(&line).expect("decodes");
    // `body` before `kind`, and `entries` before `version`: the decoders
    // set the text aside and read it once the member it depends on is
    // known.
    let mut tree = json::parse(line.trim_end()).expect("unit lines parse");
    if let JsonValue::Object(fields) = &mut tree {
        let body = fields.pop().expect("the body is the last member");
        fields.insert(0, body);
    }
    let body_first = tree.to_json_string() + "\n";
    assert!(body_first.find("\"body\"") < body_first.find("\"kind\""));
    assert_eq!(typed_unit_line(&body_first).expect("decodes"), reference);

    let text = saved_document(&mut TestRng::new(3));
    let mut tree = json::parse(&text).expect("saved documents parse");
    if let JsonValue::Object(fields) = &mut tree {
        fields.reverse();
    }
    let reversed = tree.to_json_string();
    assert!(reversed.find("\"entries\"") < reversed.find("\"version\""));
    compare_loads(&reversed).expect("same load either way");
}

// ---------------------------------------------------------------------------
// Byte edits where a predicted member read misses.
// ---------------------------------------------------------------------------

/// In a valid JSON text: the span of every member key, its quotes
/// included, and the offset of every byte outside strings.
fn layout(text: &str) -> (Vec<(usize, usize)>, Vec<usize>) {
    let bytes = text.as_bytes();
    let (mut keys, mut outside) = (Vec::new(), Vec::new());
    let mut at = 0;
    while at < bytes.len() {
        if bytes[at] != b'"' {
            outside.push(at);
            at += 1;
            continue;
        }
        let start = at;
        at += 1;
        while bytes[at] != b'"' {
            at += if bytes[at] == b'\\' { 2 } else { 1 };
        }
        at += 1;
        if text[at..].trim_start().starts_with(':') {
            keys.push((start, at));
        }
    }
    (keys, outside)
}

/// Apply one byte-level edit to `text`, a valid JSON document: insert
/// whitespace next to a byte outside strings; write one character of a
/// key as a `\u00XX` escape; extend a key by one character or cut it to
/// a proper prefix; truncate at any byte; or replace one byte (the whole
/// character, where the byte is inside one).
fn byte_edit(rng: &mut TestRng, text: &str) -> String {
    let (keys, outside) = layout(text);
    let mut text = text.to_string();
    let char_start = |text: &str, mut at: usize| {
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    match rng.below(5) {
        0 => {
            let at = pick(rng, &outside) + rng.below(2) as usize;
            text.insert_str(at, pick(rng, &[" ", "\n", "\t", "\r\n"]));
        }
        1 | 2 if keys.is_empty() => {}
        1 => {
            let (start, end) = pick(rng, &keys);
            let plain: Vec<usize> = (start + 1..end - 1)
                .filter(|&at| text.as_bytes()[at].is_ascii_alphanumeric())
                .collect();
            if !plain.is_empty() {
                let at = pick(rng, &plain);
                let byte = text.as_bytes()[at];
                let escape = if rng.below(2) == 0 {
                    format!("\\u{byte:04x}")
                } else {
                    format!("\\u{byte:04X}")
                };
                text.replace_range(at..at + 1, &escape);
            }
        }
        2 => {
            let (start, end) = pick(rng, &keys);
            if rng.below(2) == 0 || end - start == 2 {
                text.insert(end - 1, pick(rng, &['s', 'e', '_']));
            } else {
                let keep = rng.below((end - start - 2) as u64) as usize;
                text.replace_range(start + 1 + keep..end - 1, "");
            }
        }
        3 => {
            let at = char_start(&text, rng.below(text.len() as u64) as usize);
            text.truncate(at);
        }
        _ => {
            let at = char_start(&text, rng.below(text.len() as u64) as usize);
            let width = text[at..].chars().next().map_or(1, char::len_utf8);
            let replacement = pick(
                rng,
                &[
                    "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "0", "9", "-", "+", ".", "e",
                    "n", "t", "x", "\u{0}",
                ],
            );
            text.replace_range(at..at + width, replacement);
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn byte_edits_where_predictions_miss_decode_like_the_tree_walk(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let sets: Vec<MetricSet> = (0..1 + rng.below(3)).map(|_| random_set(&mut rng)).collect();
        let text = metric::sets_to_json(&sets).expect("finite sets serialize");
        let text = byte_edit(&mut rng, &text);
        let typed = metric::sets_from_json(&text).map_err(|e| e.to_string());
        agree(&text, typed, oracle::sets(&text), |_, sets| non_finite(sets))?;

        let unit = random_unit(&mut rng);
        let line = unit_line(rng.below(1000), &unit);
        let line = byte_edit(&mut rng, line.trim_end()) + "\n";
        agree(
            &line,
            typed_unit_line(&line),
            oracle::unit_line(&line),
            |_, unit| non_finite(&unit.output.sets),
        )?;

        let text = saved_document(&mut rng);
        compare_loads(&byte_edit(&mut rng, &text))?;

        let (line, reader) = random_body_line(&mut rng);
        compare_answers(&(byte_edit(&mut rng, line.trim_end()) + "\n"), reader)?;
    }
}

// ---------------------------------------------------------------------------
// The canonical JSON a decoded output derives on first read.
// ---------------------------------------------------------------------------

/// The saved cache document holding one `output` under `key`.
fn saved_with(key: &UnitKey, output: &ExperimentOutput, seed: u64) -> String {
    let cache = ResultCache::new();
    cache.insert(key.clone(), output.clone());
    let path = std::env::temp_dir().join(format!(
        "oranges-derived-json-{}-{seed}.json",
        std::process::id()
    ));
    cache.save(&path).expect("finite entries save");
    let text = std::fs::read_to_string(&path).expect("saved text");
    std::fs::remove_file(&path).ok();
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn decoded_outputs_derive_the_emitters_bytes(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let unit = random_unit(&mut rng);
        let built = &*unit.output;
        let canonical = ExperimentOutput::from_sets(built.sets.clone(), built.rendered.clone())
            .expect("finite sets serialize");

        // The `unit` envelope, through the client's decoder.
        let wire = typed_unit_line(&unit_line(rng.below(1000), &unit))
            .expect("a unit line decodes")
            .output;
        // The disk-entry envelope, through `decode` alone and through the
        // cache loader.
        let text = saved_with(&unit.key, built, seed);
        let entry = json::parse(&text)
            .expect("saved documents parse")
            .get("entries")
            .and_then(JsonValue::as_array)
            .and_then(|entries| entries.first().map(JsonValue::to_json_string))
            .expect("one entry");
        let disk = ExperimentOutput::decode(&mut json::Tokenizer::new(&entry), |_, _| Ok(false))
            .expect("the entry decodes");
        let loaded = decode_document(&text)
            .expect("the saved document loads")
            .cache
            .get(&unit.key)
            .expect("the entry survives");
        for decoded in [&wire, &disk, &*loaded] {
            prop_assert_eq!(decoded.json(), canonical.json());
            prop_assert_eq!(decoded, built);
        }
    }
}

#[test]
fn a_non_canonical_envelope_derives_the_canonical_emission() {
    // Members out of order, `1.50` for `1.5`, whitespace everywhere and
    // an escaped solidus: all valid, none of it the emitter's spelling.
    let sets = r#" [ { "metrics" : [ { "unit" : "GB\/s" , "value" : { "Float" : 1.50 } ,
        "name" : "gbs" } ] , "n" : 2048 , "implementation" : "CPU-OMP" ,
        "provenance" : { "params" : "chip=M1" , "chip" : "M1" , "experiment" : "fig1" } } ] "#;
    let envelope = format!(r#"{{ "rendered" : null , "sets" : {sets} , "wall_time_s" : 0.5 }}"#);
    let mut tokens = json::Tokenizer::new(&envelope);
    let decoded = ExperimentOutput::decode(&mut tokens, |_, _| Ok(false)).expect("decodes");
    tokens.finish().expect("one envelope");

    let mut built = ExperimentOutput::from_sets(
        vec![MetricSet::for_chip("fig1", "chip=M1", "M1")
            .with_implementation("CPU-OMP")
            .with_n(2048)
            .metric("gbs", 1.5, "GB/s")],
        None,
    )
    .expect("finite sets serialize");
    assert_eq!(decoded.json(), built.json());
    assert_ne!(decoded.json(), sets.trim());
    assert!(
        decoded.json().contains(r#"{"Float":1.5}"#),
        "{}",
        decoded.json()
    );
    assert!(decoded.json().contains(r#""GB/s""#), "{}", decoded.json());
    built.stamp_wall_time(0.5);
    assert_eq!(decoded, built);
}

#[test]
fn clones_taken_before_the_first_read_derive_the_same_bytes() {
    let mut rng = TestRng::new(11);
    for _ in 0..50 {
        let unit = random_unit(&mut rng);
        let decoded = typed_unit_line(&unit_line(1, &unit))
            .expect("a unit line decodes")
            .output;
        let clones = [decoded.clone(), decoded.clone(), decoded.clone()];
        for clone in &clones {
            assert_eq!(clone.json(), unit.output.json());
        }
        assert_eq!(decoded.json(), unit.output.json());
        // A clone taken after the first read carries the derived bytes.
        assert_eq!(decoded.clone().json(), unit.output.json());
    }
}

#[test]
fn outputs_differing_only_in_the_sign_of_zero_compare_unequal() {
    let output = |zero: f64| {
        ExperimentOutput::from_sets(
            vec![MetricSet::for_chip("fig3", "chip=M1", "M1").metric("watts", zero, "W")],
            None,
        )
        .expect("finite sets serialize")
    };
    let (positive, negative) = (output(0.0), output(-0.0));
    assert_eq!(
        positive.sets, negative.sets,
        "f64 equality ignores the sign"
    );
    assert_ne!(positive.json(), negative.json());
    assert_ne!(positive, negative);
    // The same holds for outputs decoded from the wire, whose bytes are
    // derived on first read.
    let decode = |output: ExperimentOutput| {
        let unit = UnitReport {
            index: 0,
            key: UnitKey {
                id: "fig3".to_string(),
                params: "chip=M1".to_string(),
            },
            source: UnitSource::Computed,
            wall: Duration::from_millis(1),
            output: Arc::new(output),
        };
        typed_unit_line(&unit_line(1, &unit))
            .expect("a unit line decodes")
            .output
    };
    let (positive, negative) = (decode(positive), decode(negative));
    assert_eq!(positive.sets, negative.sets);
    assert_ne!(positive, negative);
}
