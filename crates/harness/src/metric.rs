//! The unified measurement record — one typed currency from the
//! platform layer to the emitters.
//!
//! Every paper artifact is the same shape: (chip, experiment, params) →
//! {GFLOP/s, GB/s, watts, GFLOP/s/W, thermal state}. A [`MetricSet`] is
//! one coordinate of that grid: a provenance header (experiment id,
//! chip, parameter digest, wall-time, power/thermal context) plus the
//! typed, unit-carrying metrics measured there. Experiments return
//! `MetricSet`s; the campaign scheduler stamps wall-time into them; the
//! table/CSV/JSON emitters below consume them generically — no
//! per-figure row-building exists anywhere downstream.
//!
//! Serialization is lossless both ways: [`rows_to_csv`]/[`rows_from_csv`]
//! and [`sets_to_json`]/[`sets_from_json`] round-trip exactly (floats go
//! through the shortest-representation formatter), which is what makes
//! the disk-persistent result cache sound. The JSON writer and its
//! decoder read their member names from one set of tables. Wall-time is
//! deliberately never written: it varies run to run, and the campaign's
//! value-identity digest must not.

use crate::csv::{self, CsvWriter};
use crate::json::{self, Member, Token, Tokenizer};
use crate::table::TextTable;
use std::borrow::Cow;
use std::convert::Infallible;
use std::fmt::{self, Write as _};
use Member::Known;

/// A typed metric value.
///
/// JSON shape: `{"Float":1.5}`, `{"Int":3}`, `{"Bool":true}`,
/// `{"Text":"pass"}`: an object whose one member names the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A real-valued measurement (finite; non-finite serializes as null
    /// and will not round-trip).
    Float(f64),
    /// A count or index.
    Int(i64),
    /// A verdict (e.g. functional verification).
    Bool(bool),
    /// A label (e.g. a thermal state name).
    Text(String),
}

impl MetricValue {
    /// Numeric projection: `Float` and `Int` values as `f64`, `Bool` as
    /// 0/1, `Text` as `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::Float(v) => Some(*v),
            MetricValue::Int(v) => Some(*v as f64),
            MetricValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            MetricValue::Text(_) => None,
        }
    }

    /// Lossless text rendering (floats via the shortest round-trip
    /// formatter — `"1.5"`, not `"1.500000"`).
    pub fn render(&self) -> String {
        match self {
            MetricValue::Float(v) => format!("{v}"),
            MetricValue::Int(v) => v.to_string(),
            MetricValue::Bool(b) => b.to_string(),
            MetricValue::Text(s) => s.clone(),
        }
    }

    /// The type tag used in the CSV `type` column.
    pub fn type_tag(&self) -> &'static str {
        match self {
            MetricValue::Float(_) => "float",
            MetricValue::Int(_) => "int",
            MetricValue::Bool(_) => "bool",
            MetricValue::Text(_) => "text",
        }
    }

    /// Parse a value back from its `(type_tag, render)` pair.
    pub fn from_tagged(tag: &str, text: &str) -> Result<Self, MetricParseError> {
        match tag {
            "float" => text
                .parse::<f64>()
                .map(MetricValue::Float)
                .map_err(|_| MetricParseError::new(format!("bad float '{text}'"))),
            "int" => text
                .parse::<i64>()
                .map(MetricValue::Int)
                .map_err(|_| MetricParseError::new(format!("bad int '{text}'"))),
            "bool" => text
                .parse::<bool>()
                .map(MetricValue::Bool)
                .map_err(|_| MetricParseError::new(format!("bad bool '{text}'"))),
            "text" => Ok(MetricValue::Text(text.to_string())),
            other => Err(MetricParseError::new(format!(
                "unknown value type '{other}'"
            ))),
        }
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::Float(v)
    }
}

impl From<i64> for MetricValue {
    fn from(v: i64) -> Self {
        MetricValue::Int(v)
    }
}

impl From<bool> for MetricValue {
    fn from(v: bool) -> Self {
        MetricValue::Bool(v)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Text(v.to_string())
    }
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`"gbs"`, `"gflops"`, `"power_mw"`, …).
    pub name: String,
    /// Typed value.
    pub value: MetricValue,
    /// Unit label (`"GB/s"`, `"GFLOPS"`, `"mW"`, …). Never empty — the
    /// constructors enforce it, so emitters can never drop a unit.
    pub unit: String,
}

impl Metric {
    /// Build a metric; panics on an empty name or unit (a unit-less
    /// number is a bug at the producer, not something to discover in a
    /// report).
    pub fn new(name: &str, value: impl Into<MetricValue>, unit: &str) -> Self {
        assert!(!name.is_empty(), "metric name must not be empty");
        assert!(!unit.is_empty(), "metric '{name}' must carry a unit label");
        Metric {
            name: name.to_string(),
            value: value.into(),
            unit: unit.to_string(),
        }
    }
}

/// Power/thermal context captured over the same window as the metrics it
/// accompanies — the provenance that makes a cross-chip efficiency claim
/// checkable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerContext {
    /// Window-averaged package power, watts.
    pub package_watts: f64,
    /// Energy over the window, joules.
    pub energy_j: f64,
    /// Measurement window, seconds.
    pub window_s: f64,
    /// DVFS cap at measurement time (1.0 = thermally nominal; below 1.0
    /// the chip was throttled).
    pub dvfs_cap: f64,
}

impl PowerContext {
    /// Whether the chip was thermally throttled during the window.
    pub fn throttled(&self) -> bool {
        self.dvfs_cap < 1.0
    }
}

/// Where a [`MetricSet`]'s numbers came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Paper artifact id (`"fig1"`, …, or an extension id).
    pub experiment: String,
    /// Chip label (`"M1"`…) for chip-scoped measurements.
    pub chip: Option<String>,
    /// The producing experiment's full parameter digest — the same
    /// string the result cache keys on.
    pub params: String,
    /// Wall-clock seconds the producing unit took, stamped by the
    /// campaign scheduler. [`sets_to_json`] never writes it: wall-time
    /// varies run to run and must not perturb value-identity digests; the
    /// cache persists it out-of-band.
    pub wall_time_s: Option<f64>,
    /// Power/thermal context of the measurement window, where measured.
    pub power: Option<PowerContext>,
}

/// One coordinate of an experiment grid: provenance + the typed metrics
/// measured there.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    /// Measurement provenance.
    pub provenance: Provenance,
    /// Implementation legend name, if the coordinate is
    /// implementation-scoped.
    pub implementation: Option<String>,
    /// Problem size, if the coordinate is size-scoped.
    pub n: Option<u64>,
    /// The measurements, in producer order.
    pub metrics: Vec<Metric>,
}

impl MetricSet {
    /// A chip-independent set.
    pub fn new(experiment: &str, params: &str) -> Self {
        MetricSet {
            provenance: Provenance {
                experiment: experiment.to_string(),
                chip: None,
                params: params.to_string(),
                wall_time_s: None,
                power: None,
            },
            implementation: None,
            n: None,
            metrics: Vec::new(),
        }
    }

    /// A chip-scoped set.
    pub fn for_chip(experiment: &str, params: &str, chip: &str) -> Self {
        let mut set = MetricSet::new(experiment, params);
        set.provenance.chip = Some(chip.to_string());
        set
    }

    /// Attach an implementation name.
    pub fn with_implementation(mut self, implementation: &str) -> Self {
        self.implementation = Some(implementation.to_string());
        self
    }

    /// Attach a problem size.
    pub fn with_n(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// Attach the power/thermal context of the measurement window.
    pub fn with_power(mut self, power: PowerContext) -> Self {
        self.provenance.power = Some(power);
        self
    }

    /// Append a metric (builder form).
    pub fn metric(mut self, name: &str, value: impl Into<MetricValue>, unit: &str) -> Self {
        self.metrics.push(Metric::new(name, value, unit));
        self
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Numeric value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|m| m.value.as_f64())
    }

    /// The deterministic sort key: (experiment, chip, implementation, n).
    pub fn sort_key(&self) -> (String, String, String, u64) {
        (
            self.provenance.experiment.clone(),
            self.provenance.chip.clone().unwrap_or_default(),
            self.implementation.clone().unwrap_or_default(),
            self.n.unwrap_or(0),
        )
    }

    /// Flatten to one row per metric.
    pub fn rows(&self) -> Vec<MetricRow> {
        self.metrics
            .iter()
            .map(|m| MetricRow {
                experiment: self.provenance.experiment.clone(),
                chip: self.provenance.chip.clone(),
                implementation: self.implementation.clone(),
                n: self.n,
                metric: m.name.clone(),
                value: m.value.clone(),
                unit: m.unit.clone(),
            })
            .collect()
    }
}

impl fmt::Display for MetricSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]",
            self.provenance.experiment, self.provenance.params
        )?;
        if let Some(implementation) = &self.implementation {
            write!(f, " {implementation}")?;
        }
        if let Some(n) = self.n {
            write!(f, " n={n}")?;
        }
        write!(f, ": {} metrics", self.metrics.len())
    }
}

/// One flattened (coordinate, metric) cell — what the CSV and table
/// emitters iterate over.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Paper artifact id.
    pub experiment: String,
    /// Chip label, if chip-scoped.
    pub chip: Option<String>,
    /// Implementation legend name, if implementation-scoped.
    pub implementation: Option<String>,
    /// Problem size, if size-scoped.
    pub n: Option<u64>,
    /// Metric name.
    pub metric: String,
    /// Typed value.
    pub value: MetricValue,
    /// Unit label.
    pub unit: String,
}

impl MetricRow {
    /// The deterministic sort key: (experiment, chip, implementation, n,
    /// metric). Row order never depends on worker interleaving once
    /// sorted by this.
    pub fn sort_key(&self) -> (String, String, String, u64, String) {
        (
            self.experiment.clone(),
            self.chip.clone().unwrap_or_default(),
            self.implementation.clone().unwrap_or_default(),
            self.n.unwrap_or(0),
            self.metric.clone(),
        )
    }

    /// Numeric projection of the value.
    pub fn value_f64(&self) -> Option<f64> {
        self.value.as_f64()
    }
}

/// Flatten a slice of sets into rows, preserving set and metric order.
pub fn rows(sets: &[MetricSet]) -> Vec<MetricRow> {
    sets.iter().flat_map(MetricSet::rows).collect()
}

/// CSV header of the flat row emitters.
pub const CSV_HEADER: [&str; 8] = [
    "experiment",
    "chip",
    "implementation",
    "n",
    "metric",
    "type",
    "value",
    "unit",
];

/// CSV of a row slice. Lossless: typed values carry a `type` column and
/// floats use the shortest round-trip rendering, so [`rows_from_csv`]
/// reconstructs the input exactly.
pub fn rows_to_csv(rows: &[MetricRow]) -> String {
    let mut writer = CsvWriter::new(&CSV_HEADER);
    for row in rows {
        writer.row(&[
            row.experiment.clone(),
            row.chip.clone().unwrap_or_default(),
            row.implementation.clone().unwrap_or_default(),
            row.n.map(|n| n.to_string()).unwrap_or_default(),
            row.metric.clone(),
            row.value.type_tag().to_string(),
            row.value.render(),
            row.unit.clone(),
        ]);
    }
    writer.finish()
}

/// Failure to reconstruct typed records from CSV or JSON text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricParseError(String);

impl MetricParseError {
    fn new(message: impl Into<String>) -> Self {
        MetricParseError(message.into())
    }
}

impl fmt::Display for MetricParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metric parse error: {}", self.0)
    }
}

impl std::error::Error for MetricParseError {}

impl From<json::JsonParseError> for MetricParseError {
    fn from(e: json::JsonParseError) -> Self {
        MetricParseError(e.to_string())
    }
}

/// Parse rows back from [`rows_to_csv`] output. Empty `chip` /
/// `implementation` / `n` cells become `None` (the writer emits them
/// that way, so `Some("")` never occurs in practice).
pub fn rows_from_csv(text: &str) -> Result<Vec<MetricRow>, MetricParseError> {
    let parsed = csv::parse(text);
    let mut lines = parsed.into_iter();
    let header = lines
        .next()
        .ok_or_else(|| MetricParseError::new("empty CSV"))?;
    if header != CSV_HEADER {
        return Err(MetricParseError::new(format!(
            "unexpected header {header:?}"
        )));
    }
    let optional = |cell: &str| {
        if cell.is_empty() {
            None
        } else {
            Some(cell.to_string())
        }
    };
    let mut rows = Vec::new();
    for (index, cells) in lines.enumerate() {
        if cells.len() != CSV_HEADER.len() {
            return Err(MetricParseError::new(format!(
                "row {index}: {} cells, expected {}",
                cells.len(),
                CSV_HEADER.len()
            )));
        }
        let n = match cells[3].as_str() {
            "" => None,
            text => Some(
                text.parse::<u64>()
                    .map_err(|_| MetricParseError::new(format!("row {index}: bad n '{text}'")))?,
            ),
        };
        rows.push(MetricRow {
            experiment: cells[0].clone(),
            chip: optional(&cells[1]),
            implementation: optional(&cells[2]),
            n,
            metric: cells[4].clone(),
            value: MetricValue::from_tagged(&cells[5], &cells[6])?,
            unit: cells[7].clone(),
        });
    }
    Ok(rows)
}

/// The members of a set, of its provenance, of a power context and of a
/// metric, in the order [`sets_to_json`] writes them and the decoders
/// predict them; and the variants of a metric value, in the order
/// [`MetricValue`] declares them.
const SET: [&str; 4] = ["provenance", "implementation", "n", "metrics"];
const PROVENANCE: [&str; 4] = ["experiment", "chip", "params", "power"];
const POWER: [&str; 4] = ["package_watts", "energy_j", "window_s", "dvfs_cap"];
const METRIC: [&str; 3] = ["name", "value", "unit"];
const VARIANTS: [&str; 4] = ["Float", "Int", "Bool", "Text"];

/// JSON array of full sets (structured shape; the persistence format),
/// with no whitespace, absent options as `null` and floats in their
/// shortest round-trip text. Wall-time is never written — see
/// [`Provenance::wall_time_s`]. Writing cannot fail; the `Result` keeps
/// the shape of the callers that propagate it.
pub fn sets_to_json(sets: &[MetricSet]) -> Result<String, Infallible> {
    let mut out = String::from("[");
    for (index, set) in sets.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        write_set(&mut out, set);
    }
    out.push(']');
    Ok(out)
}

fn write_set(out: &mut String, set: &MetricSet) {
    let provenance = &set.provenance;
    json::write_key(out, '{', SET[0]);
    json::write_key(out, '{', PROVENANCE[0]);
    json::escape_into(out, &provenance.experiment);
    json::write_key(out, ',', PROVENANCE[1]);
    write_optional_string(out, provenance.chip.as_deref());
    json::write_key(out, ',', PROVENANCE[2]);
    json::escape_into(out, &provenance.params);
    json::write_key(out, ',', PROVENANCE[3]);
    match provenance.power {
        Some(power) => {
            let fields = [
                power.package_watts,
                power.energy_j,
                power.window_s,
                power.dvfs_cap,
            ];
            for (index, (name, value)) in POWER.iter().zip(fields).enumerate() {
                json::write_key(out, if index == 0 { '{' } else { ',' }, name);
                json::write_f64(out, value);
            }
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    json::write_key(out, ',', SET[1]);
    write_optional_string(out, set.implementation.as_deref());
    json::write_key(out, ',', SET[2]);
    match set.n {
        Some(n) => write!(out, "{n}").expect("writing to a String cannot fail"),
        None => out.push_str("null"),
    }
    json::write_key(out, ',', SET[3]);
    out.push('[');
    for (index, metric) in set.metrics.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        json::write_key(out, '{', METRIC[0]);
        json::escape_into(out, &metric.name);
        json::write_key(out, ',', METRIC[1]);
        write_value(out, &metric.value);
        json::write_key(out, ',', METRIC[2]);
        json::escape_into(out, &metric.unit);
        out.push('}');
    }
    out.push_str("]}");
}

/// A `{"Variant":payload}` value.
fn write_value(out: &mut String, value: &MetricValue) {
    let variant = match value {
        MetricValue::Float(_) => 0,
        MetricValue::Int(_) => 1,
        MetricValue::Bool(_) => 2,
        MetricValue::Text(_) => 3,
    };
    json::write_key(out, '{', VARIANTS[variant]);
    match value {
        MetricValue::Float(v) => json::write_f64(out, *v),
        MetricValue::Int(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
        MetricValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        MetricValue::Text(text) => json::escape_into(out, text),
    }
    out.push('}');
}

fn write_optional_string(out: &mut String, text: Option<&str>) {
    match text {
        Some(text) => json::escape_into(out, text),
        None => out.push_str("null"),
    }
}

/// Rebuild sets from [`sets_to_json`] output.
pub fn sets_from_json(text: &str) -> Result<Vec<MetricSet>, MetricParseError> {
    let mut tokens = Tokenizer::new(text);
    let sets = decode_sets(&mut tokens)?;
    tokens.finish()?;
    Ok(sets)
}

/// Decode the tokenizer's next value, a JSON array of sets in the
/// [`sets_to_json`] shape, straight into typed records. This is the
/// workspace's one `MetricSet` decoder: [`sets_from_json`], the
/// campaign's disk cache and its service client all read sets through
/// it.
///
/// Each object's members are declared once, in the tables
/// [`sets_to_json`] writes from, and read with
/// [`Tokenizer::next_member`]: on the writer's own output every key is
/// one predicted comparison, and
/// every value a typed read. Members may still come in any order,
/// spaced or with escaped keys, and unknown ones are skipped; when a key
/// repeats, its first occurrence counts and later ones are only checked
/// for syntax. A `Float` value or power-context field that parses to
/// ±infinity (an out-of-range literal such as `1e999`) is rejected: it
/// would re-emit as `null`, which no reader accepts.
pub fn decode_sets(tokens: &mut Tokenizer<'_>) -> Result<Vec<MetricSet>, MetricParseError> {
    if !tokens.begin_array()? {
        return Err(MetricParseError::new("document is not an array of sets"));
    }
    let mut sets = Vec::new();
    while tokens.next_item()? {
        sets.push(decode_set(tokens)?);
    }
    Ok(sets)
}

fn decode_set(tokens: &mut Tokenizer<'_>) -> Result<MetricSet, MetricParseError> {
    if !tokens.begin_object()? {
        return Err(MetricParseError::new("set is not an object"));
    }
    let (mut provenance, mut implementation, mut n, mut metrics) = (None, None, None, None);
    let mut next = 0;
    while let Some(member) = tokens.next_member(&SET, &mut next)? {
        match member {
            Known(0) if provenance.is_none() => provenance = Some(decode_provenance(tokens)?),
            Known(1) if implementation.is_none() => {
                implementation = Some(optional_string(tokens, "implementation")?)
            }
            Known(2) if n.is_none() => {
                n = Some(match tokens.u64_value()? {
                    Some(n) => Some(n),
                    None => match tokens.next_value()? {
                        Token::Null => None,
                        Token::Number(text) => {
                            return Err(MetricParseError::new(format!(
                                "n field {text} is not an exact u64"
                            )))
                        }
                        other => {
                            return Err(MetricParseError::new(format!("bad n field {other:?}")))
                        }
                    },
                })
            }
            Known(3) if metrics.is_none() => metrics = Some(decode_metrics(tokens)?),
            _ => tokens.skip_value()?,
        }
    }
    Ok(MetricSet {
        provenance: provenance.ok_or_else(|| MetricParseError::new("set is missing provenance"))?,
        implementation: implementation.flatten(),
        n: n.flatten(),
        metrics: metrics.ok_or_else(|| MetricParseError::new("set is missing metrics array"))?,
    })
}

fn decode_provenance(tokens: &mut Tokenizer<'_>) -> Result<Provenance, MetricParseError> {
    if !tokens.begin_object()? {
        return Err(MetricParseError::new("provenance is not an object"));
    }
    let (mut experiment, mut chip, mut params, mut power) = (None, None, None, None);
    let mut next = 0;
    while let Some(member) = tokens.next_member(&PROVENANCE, &mut next)? {
        match member {
            Known(0) if experiment.is_none() => {
                experiment = Some(required_string(tokens, "experiment")?)
            }
            Known(1) if chip.is_none() => chip = Some(optional_string(tokens, "chip")?),
            Known(2) if params.is_none() => params = Some(required_string(tokens, "params")?),
            Known(3) if power.is_none() => {
                power = Some(match tokens.next_token()? {
                    Some(Token::Null) => None,
                    Some(Token::BeginObject) => Some(decode_power(tokens)?),
                    _ => return Err(MetricParseError::new("power context is not an object")),
                })
            }
            _ => tokens.skip_value()?,
        }
    }
    let missing = |key: &str| MetricParseError::new(format!("missing string field '{key}'"));
    Ok(Provenance {
        experiment: experiment.ok_or_else(|| missing("experiment"))?,
        chip: chip.flatten(),
        params: params.ok_or_else(|| missing("params"))?,
        wall_time_s: None,
        power: power.flatten(),
    })
}

/// The members of a power context, after its `{`.
fn decode_power(tokens: &mut Tokenizer<'_>) -> Result<PowerContext, MetricParseError> {
    let mut values = [None; 4];
    let mut next = 0;
    while let Some(member) = tokens.next_member(&POWER, &mut next)? {
        match member {
            Known(index) if values[index].is_none() => {
                values[index] = Some(match tokens.f64_value()? {
                    Some((value, text)) => finite(value, text)?,
                    None => {
                        tokens.skip_value()?;
                        return Err(MetricParseError::new(format!(
                            "power context field '{}' is not a number",
                            POWER[index]
                        )));
                    }
                })
            }
            _ => tokens.skip_value()?,
        }
    }
    let field = |index: usize| {
        values[index].ok_or_else(|| {
            MetricParseError::new(format!("power context is missing '{}'", POWER[index]))
        })
    };
    Ok(PowerContext {
        package_watts: field(0)?,
        energy_j: field(1)?,
        window_s: field(2)?,
        dvfs_cap: field(3)?,
    })
}

fn decode_metrics(tokens: &mut Tokenizer<'_>) -> Result<Vec<Metric>, MetricParseError> {
    if !tokens.begin_array()? {
        return Err(MetricParseError::new("set is missing metrics array"));
    }
    let mut metrics = Vec::new();
    while tokens.next_item()? {
        if !tokens.begin_object()? {
            return Err(MetricParseError::new("metric is not an object"));
        }
        let (mut name, mut value, mut unit) = (None, None, None);
        let mut next = 0;
        while let Some(member) = tokens.next_member(&METRIC, &mut next)? {
            match member {
                Known(0) if name.is_none() => name = Some(required_string(tokens, "name")?),
                Known(1) if value.is_none() => value = Some(decode_value(tokens)?),
                Known(2) if unit.is_none() => unit = Some(required_string(tokens, "unit")?),
                _ => tokens.skip_value()?,
            }
        }
        let unit = unit.ok_or_else(|| MetricParseError::new("missing string field 'unit'"))?;
        if unit.is_empty() {
            return Err(MetricParseError::new("metric unit label was dropped"));
        }
        metrics.push(Metric {
            name: name.ok_or_else(|| MetricParseError::new("missing string field 'name'"))?,
            value: value.ok_or_else(|| MetricParseError::new("metric is missing value"))?,
            unit,
        });
    }
    Ok(metrics)
}

/// A `{"Variant":payload}` value: exactly one member.
fn decode_value(tokens: &mut Tokenizer<'_>) -> Result<MetricValue, MetricParseError> {
    let not_a_variant = || MetricParseError::new("metric value is not a variant object");
    if !tokens.begin_object()? {
        return Err(not_a_variant());
    }
    let variant = tokens
        .next_member(&VARIANTS, &mut 0)?
        .ok_or_else(not_a_variant)?;
    // A `Float`, nearly every metric, takes the typed read; any other
    // payload goes through its token.
    let float = match variant {
        Known(0) => tokens.f64_value()?,
        _ => None,
    };
    let value = match float {
        Some((value, text)) => MetricValue::Float(finite(value, text)?),
        None => {
            let variant = match &variant {
                Known(index) => VARIANTS[*index],
                Member::Other(key) => key,
            };
            match (variant, tokens.next_value()?) {
                ("Int", Token::Number(text)) => MetricValue::Int(text.parse().map_err(|_| {
                    MetricParseError::new(format!("Int value {text} is not an exact i64"))
                })?),
                ("Bool", Token::Bool(b)) => MetricValue::Bool(b),
                ("Text", Token::String(s)) => MetricValue::Text(s.into_owned()),
                (variant, _) => {
                    return Err(MetricParseError::new(format!(
                        "bad metric value variant '{variant}'"
                    )))
                }
            }
        }
    };
    match tokens.next_key()? {
        None => Ok(value),
        Some(_) => Err(not_a_variant()),
    }
}

/// A parsed number that must stay finite, or it would re-emit as `null`.
fn finite(value: f64, text: &str) -> Result<f64, MetricParseError> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(MetricParseError::new(format!(
            "value {text} is not finite and would not round-trip"
        )))
    }
}

fn required_string(tokens: &mut Tokenizer<'_>, key: &str) -> Result<String, MetricParseError> {
    tokens
        .read_or_skip(Tokenizer::string_value)?
        .map(Cow::into_owned)
        .ok_or_else(|| MetricParseError::new(format!("missing string field '{key}'")))
}

fn optional_string(
    tokens: &mut Tokenizer<'_>,
    key: &str,
) -> Result<Option<String>, MetricParseError> {
    if let Some(text) = tokens.string_value()? {
        return Ok(Some(text.into_owned()));
    }
    match tokens.next_value()? {
        Token::Null => Ok(None),
        other => Err(MetricParseError::new(format!(
            "expected string or null for '{key}', got {other:?}"
        ))),
    }
}

/// Human-readable table of a row slice — the generic replacement for
/// per-figure table builders.
pub fn rows_table(rows: &[MetricRow]) -> String {
    let mut table = TextTable::new(vec![
        "Experiment",
        "Chip",
        "Implementation",
        "n",
        "Metric",
        "Value",
        "Unit",
    ])
    .numeric();
    for row in rows {
        table.row(vec![
            row.experiment.clone(),
            row.chip.clone().unwrap_or_default(),
            row.implementation.clone().unwrap_or_default(),
            row.n.map(|n| n.to_string()).unwrap_or_default(),
            row.metric.clone(),
            match &row.value {
                MetricValue::Float(v) => format!("{v:.3}"),
                other => other.render(),
            },
            row.unit.clone(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sets() -> Vec<MetricSet> {
        vec![
            MetricSet::for_chip("fig1", "chip=M1", "M1")
                .with_implementation("Triad (CPU)")
                .metric("gbs", 102.5, "GB/s"),
            MetricSet::for_chip("fig2", "chip=M4;sizes=16384", "M4")
                .with_implementation("GPU-MPS")
                .with_n(16384)
                .with_power(PowerContext {
                    package_watts: 14.2,
                    energy_j: 71.0,
                    window_s: 5.0,
                    dvfs_cap: 1.0,
                })
                .metric("gflops", 2900.0, "GFLOPS")
                .metric("verified", true, "flag"),
            MetricSet::new("tables", "tables=1,2,3").metric("rows", 17i64, "rows"),
        ]
    }

    #[test]
    fn builder_populates_provenance_and_metrics() {
        let sets = sample_sets();
        assert_eq!(sets[0].provenance.chip.as_deref(), Some("M1"));
        assert_eq!(sets[1].value("gflops"), Some(2900.0));
        assert_eq!(sets[1].value("verified"), Some(1.0));
        assert!(sets[1].provenance.power.unwrap().package_watts > 14.0);
        assert!(!sets[1].provenance.power.unwrap().throttled());
        assert_eq!(sets[2].provenance.chip, None);
        assert_eq!(sets[2].get("rows").unwrap().unit, "rows");
    }

    #[test]
    #[should_panic(expected = "unit label")]
    fn unit_labels_are_mandatory() {
        let _ = MetricSet::new("x", "p").metric("gbs", 1.0, "");
    }

    #[test]
    fn rows_flatten_in_order() {
        let all = rows(&sample_sets());
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].metric, "gbs");
        assert_eq!(all[2].metric, "verified");
        assert_eq!(all[2].value, MetricValue::Bool(true));
        assert_eq!(all[3].chip, None);
    }

    #[test]
    fn csv_round_trips_exactly() {
        let before = rows(&sample_sets());
        let csv = rows_to_csv(&before);
        assert!(csv.starts_with("experiment,chip,implementation,n,metric,type,value,unit"));
        assert!(csv.contains("fig2,M4,GPU-MPS,16384,gflops,float,2900,GFLOPS"));
        let after = rows_from_csv(&csv).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn json_round_trips_exactly_including_power() {
        let before = sample_sets();
        let text = sets_to_json(&before).unwrap();
        let after = sets_from_json(&text).unwrap();
        assert_eq!(before, after);
        // And re-emission is byte-identical (canonical form).
        assert_eq!(sets_to_json(&after).unwrap(), text);
    }

    #[test]
    fn json_writes_the_pinned_bytes() {
        // The writer and the decoder share their name tables, so a
        // renamed member would still round-trip. These are the bytes
        // earlier builds wrote, which cache files and campaign
        // fingerprints are made of.
        let sets = [
            MetricSet::new("tables", "tables=1,2,3").metric("rows", i64::MIN, "rows"),
            MetricSet::for_chip("fig2", "chip=M4;sizes=16384", "M4")
                .with_implementation("GPU \"MPS\" \\ tsch\u{fc}\u{df}\n\u{1}")
                .with_n(u64::MAX)
                .with_power(PowerContext {
                    package_watts: 14.2,
                    energy_j: -0.0,
                    window_s: 1e21,
                    dvfs_cap: 1.0,
                })
                .metric("gflops", 2900.0, "GFLOPS")
                .metric("tiny", 1e-7, "s")
                .metric("lost", f64::NAN, "GFLOPS")
                .metric("verified", true, "flag")
                .metric("state", "hot \"M4\"", "label"),
        ];
        let Ok(json) = sets_to_json(&sets);
        let expected = concat!(
            r#"[{"provenance":{"experiment":"tables","chip":null,"params":"tables=1,2,3","#,
            r#""power":null},"implementation":null,"n":null,"metrics":[{"name":"rows","#,
            r#""value":{"Int":-9223372036854775808},"unit":"rows"}]},"#,
            r#"{"provenance":{"experiment":"fig2","chip":"M4","params":"chip=M4;sizes=16384","#,
            r#""power":{"package_watts":14.2,"energy_j":-0,"window_s":1000000000000000000000,"#,
            r#""dvfs_cap":1}},"implementation":"GPU \"MPS\" \\ tschüß\n\u0001","#,
            r#""n":18446744073709551615,"metrics":["#,
            r#"{"name":"gflops","value":{"Float":2900},"unit":"GFLOPS"},"#,
            r#"{"name":"tiny","value":{"Float":0.0000001},"unit":"s"},"#,
            r#"{"name":"lost","value":{"Float":null},"unit":"GFLOPS"},"#,
            r#"{"name":"verified","value":{"Bool":true},"unit":"flag"},"#,
            r#"{"name":"state","value":{"Text":"hot \"M4\""},"unit":"label"}]}]"#,
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn wall_time_never_reaches_serialization() {
        let mut set = sample_sets().remove(0);
        let without = sets_to_json(std::slice::from_ref(&set)).unwrap();
        set.provenance.wall_time_s = Some(12.5);
        let with = sets_to_json(std::slice::from_ref(&set)).unwrap();
        assert_eq!(without, with, "wall-time must not perturb value identity");
        let reloaded = sets_from_json(&with).unwrap();
        assert_eq!(reloaded[0].provenance.wall_time_s, None);
    }

    #[test]
    fn sort_keys_order_rows_deterministically() {
        let mut all = rows(&sample_sets());
        all.reverse();
        all.sort_by_key(MetricRow::sort_key);
        assert_eq!(all[0].experiment, "fig1");
        assert_eq!(all.last().unwrap().experiment, "tables");
    }

    #[test]
    fn table_renders_all_cells() {
        let text = rows_table(&rows(&sample_sets()));
        for needle in ["fig1", "Triad (CPU)", "GB/s", "2900.000", "true", "flag"] {
            assert!(text.contains(needle), "missing {needle} in\n{text}");
        }
    }

    #[test]
    fn display_summarizes_coordinates() {
        let text = sample_sets()[1].to_string();
        assert!(text.contains("fig2[chip=M4;sizes=16384] GPU-MPS n=16384"));
    }
}
