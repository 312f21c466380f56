//! Property tests: statistics, CSV round-trips, envelope JSON, tables,
//! and the MetricSet serialization contract (lossless round-trips, unit
//! labels never dropped).

use oranges_harness::csv::{parse, CsvWriter};
use oranges_harness::envelope::{Request, Response};
use oranges_harness::experiment::RepetitionProtocol;
use oranges_harness::json::JsonValue;
use oranges_harness::metric::{self, MetricRow, MetricSet, MetricValue, PowerContext};
use oranges_harness::obs::{
    escape_label_value, log_spaced_buckets, sanitize_label_name, sanitize_metric_name, Exposition,
    Histogram,
};
use oranges_harness::reactor::{FrameBuffer, WriteQueue};
use oranges_harness::stats::Summary;
use oranges_harness::table::TextTable;
use oranges_harness::transport::Endpoint;
use proptest::prelude::*;

/// Drawn ingredients → one typed value. Kind cycles through all four
/// variants; floats are drawn finite (non-finite serializes as JSON
/// null by design and cannot round-trip).
fn assemble_value(
    kind: u8,
    floats: &[f64],
    ints: &[i64],
    texts: &[String],
    i: usize,
) -> MetricValue {
    match kind % 4 {
        0 => MetricValue::Float(floats[i % floats.len()]),
        1 => MetricValue::Int(ints[i % ints.len()]),
        2 => MetricValue::Bool(ints[i % ints.len()] % 2 == 0),
        _ => MetricValue::Text(texts[i % texts.len()].clone()),
    }
}

/// Drawn ingredients → arbitrary-but-valid rows. Names/units/labels
/// exercise commas, quotes, spaces and unicode — everything the CSV and
/// JSON escapers must survive.
#[allow(clippy::too_many_arguments)]
fn assemble_rows(
    kinds: &[u8],
    names: &[String],
    units: &[String],
    floats: &[f64],
    ints: &[i64],
    texts: &[String],
    ns: &[u64],
) -> Vec<MetricRow> {
    kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| MetricRow {
            experiment: format!("exp{}", kind % 3),
            chip: match kind % 5 {
                0 => None,
                variant => Some(format!("M{variant}")),
            },
            implementation: if kind % 3 == 0 {
                None
            } else {
                Some(texts[i % texts.len()].clone()).filter(|t| !t.is_empty())
            },
            n: if kind % 2 == 0 {
                Some(ns[i % ns.len()])
            } else {
                None
            },
            metric: names[i % names.len()].clone(),
            value: assemble_value(kind / 4, floats, ints, texts, i),
            unit: units[i % units.len()].clone(),
        })
        .collect()
}

proptest! {
    #[test]
    fn summary_bounds(samples in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
        let s = Summary::of(&samples).unwrap();
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.min <= s.mean + 1e-9);
        prop_assert!(s.mean <= s.max + 1e-9);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.stddev >= 0.0);
        prop_assert!(s.stddev <= (s.max - s.min) + 1e-9);
    }

    #[test]
    fn csv_round_trips_arbitrary_cells(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9 ,\"']{0,20}", 3..4), 0..12)
    ) {
        let mut writer = CsvWriter::new(&["a", "b", "c"]);
        for row in &rows {
            let cells: Vec<String> = row.clone();
            writer.row(&cells);
        }
        let text = writer.finish();
        let parsed = parse(&text);
        prop_assert_eq!(parsed.len(), rows.len() + 1);
        for (parsed_row, row) in parsed[1..].iter().zip(&rows) {
            prop_assert_eq!(parsed_row, row);
        }
    }

    #[test]
    fn protocol_runs_exact_count(reps in 1u32..30, warmup in 0u32..10) {
        let protocol = RepetitionProtocol { reps, warmup };
        let mut calls = 0u32;
        let kept = protocol
            .try_run(|_| {
                calls += 1;
                Ok::<_, ()>(calls)
            })
            .unwrap();
        prop_assert_eq!(calls, reps + warmup);
        prop_assert_eq!(kept.len(), reps as usize);
        // The kept values are the last `reps` calls.
        prop_assert_eq!(kept[0], warmup + 1);
    }

    #[test]
    fn metric_rows_csv_round_trips_and_keeps_units(
        kinds in proptest::collection::vec(0u8..20, 1..24),
        names in proptest::collection::vec("[a-z_]{1,10}", 1..8),
        units in proptest::collection::vec("[a-zA-Z/%° ,\"]{1,6}", 1..8),
        floats in proptest::collection::vec(-1e9f64..1e9, 1..8),
        ints in proptest::collection::vec(any::<i64>(), 1..8),
        texts in proptest::collection::vec("[a-zA-Z0-9 ,\"'/-]{0,12}", 1..8),
        ns in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let rows = assemble_rows(&kinds, &names, &units, &floats, &ints, &texts, &ns);
        let csv = metric::rows_to_csv(&rows);
        let reloaded = metric::rows_from_csv(&csv).expect("own CSV parses");
        // Lossless: typed values, coordinates and unit labels all survive.
        prop_assert_eq!(&reloaded, &rows);
        for row in &reloaded {
            prop_assert!(!row.unit.is_empty(), "unit label dropped: {:?}", row);
        }
        // Re-emission is byte-identical (canonical form).
        prop_assert_eq!(metric::rows_to_csv(&reloaded), csv);
    }

    #[test]
    fn metric_sets_json_round_trips_and_keeps_units(
        kinds in proptest::collection::vec(0u8..20, 1..16),
        names in proptest::collection::vec("[a-z_]{1,10}", 1..8),
        units in proptest::collection::vec("[a-zA-Z/%° ,\"]{1,6}", 1..8),
        floats in proptest::collection::vec(-1e9f64..1e9, 2..8),
        ints in proptest::collection::vec(any::<i64>(), 1..8),
        texts in proptest::collection::vec("[a-zA-Z0-9 ,\"'/-]{0,12}", 1..8),
        ns in proptest::collection::vec(any::<u64>(), 1..8),
        params in "[a-z0-9=;,]{0,20}",
    ) {
        // One set per drawn kind, each with 0..3 metrics and (half the
        // time) a power context.
        let sets: Vec<MetricSet> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let mut set = match kind % 3 {
                    0 => MetricSet::new(&format!("exp{}", kind % 5), &params),
                    variant => MetricSet::for_chip(
                        &format!("exp{}", kind % 5),
                        &params,
                        &format!("M{variant}"),
                    ),
                };
                if kind % 4 == 1 {
                    set = set.with_implementation(&format!("impl-{}", texts[i % texts.len()]));
                }
                if kind % 2 == 0 {
                    set = set.with_n(ns[i % ns.len()]);
                }
                if kind % 4 >= 2 {
                    set = set.with_power(PowerContext {
                        package_watts: floats[i % floats.len()].abs(),
                        energy_j: floats[(i + 1) % floats.len()].abs(),
                        window_s: floats[i % floats.len()].abs() + 1e-3,
                        dvfs_cap: if kind % 8 >= 4 { 1.0 } else { 0.5 },
                    });
                }
                for m in 0..(kind % 3) {
                    let index = i + m as usize;
                    set = set.metric(
                        &names[index % names.len()],
                        assemble_value(kind / 3 + m, &floats, &ints, &texts, index),
                        &units[index % units.len()],
                    );
                }
                set
            })
            .collect();

        let json = metric::sets_to_json(&sets).expect("serializes");
        let reloaded = metric::sets_from_json(&json).expect("own JSON parses");
        prop_assert_eq!(&reloaded, &sets);
        // Unit labels are never dropped anywhere in the pipeline.
        for set in &reloaded {
            for m in &set.metrics {
                prop_assert!(!m.unit.is_empty(), "unit label dropped: {:?}", m);
            }
        }
        // Re-emission is byte-identical (canonical form).
        prop_assert_eq!(metric::sets_to_json(&reloaded).expect("serializes"), json);
    }

    #[test]
    fn tables_render_rectangles(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9 ]{0,12}", 2..3), 0..10)
    ) {
        let mut table = TextTable::new(vec!["col1", "col2"]);
        for row in &rows {
            table.row(row.clone());
        }
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), rows.len() + 2);
        let width = lines[0].chars().count();
        for line in &lines {
            prop_assert_eq!(line.chars().count(), width);
        }
    }
}

proptest! {
    /// `Endpoint` display and parse are exact inverses: any `unix:` path
    /// and any `tcp:host:port` authority survives a full
    /// display → parse → display cycle byte-for-byte, and the typed
    /// value survives parse → display → parse. (The transport layer
    /// leans on this: fleet lists, `--listen` flags, and resolved
    /// listener endpoints all travel as strings.)
    #[test]
    fn endpoints_round_trip_between_display_and_parse(
        path in "[a-zA-Z0-9_. /-]{1,32}",
        host in "[a-z0-9.-]{1,20}",
        port in 0u32..65536,
    ) {
        let unix_text = format!("unix:/{path}");
        let unix: Endpoint = unix_text.parse().expect("unix endpoint parses");
        prop_assert_eq!(&unix.to_string(), &unix_text);
        prop_assert_eq!(&unix.to_string().parse::<Endpoint>().expect("re-parses"), &unix);

        let tcp_text = format!("tcp:{host}:{port}");
        let tcp: Endpoint = tcp_text.parse().expect("tcp endpoint parses");
        prop_assert_eq!(&tcp.to_string(), &tcp_text);
        prop_assert_eq!(&tcp.to_string().parse::<Endpoint>().expect("re-parses"), &tcp);
        prop_assert_eq!(tcp.scheme(), "tcp");
    }
}

// ---------------------------------------------------------------------------
// Metrics exposition: hostile names and values always emit parseable text
// ---------------------------------------------------------------------------

/// A deliberately small parser for the exposition sample-line grammar
/// (`name{key="value",...} number`). It accepts exactly what a scraper
/// would: names in `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names without the
/// colon, label values with `\\`/`\"`/`\n` escapes, and `+Inf`/`-Inf`/
/// `NaN` specials. Anything else is an error — so the property below
/// proves the writer's sanitizers cover *every* input.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_sample(line: &str) -> Result<Sample, String> {
    let mut chars = line.chars().peekable();
    let mut name = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
            chars.next();
        } else {
            break;
        }
    }
    if name.is_empty() {
        return Err(format!("no metric name in {line:?}"));
    }
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        return Err(format!("metric name starts with a digit in {line:?}"));
    }
    let mut labels = Vec::new();
    if chars.peek() == Some(&'{') {
        chars.next();
        loop {
            if chars.peek() == Some(&'}') {
                chars.next();
                break;
            }
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    key.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            if key.is_empty() || key.starts_with(|c: char| c.is_ascii_digit()) {
                return Err(format!("bad label name in {line:?}"));
            }
            if chars.next() != Some('=') || chars.next() != Some('"') {
                return Err(format!("label {key} is not key=\"value\" in {line:?}"));
            }
            let mut value = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in {line:?}")),
                    },
                    Some('"') => break,
                    Some(c) => value.push(c),
                    None => return Err(format!("unterminated label value in {line:?}")),
                }
            }
            labels.push((key, value));
            match chars.peek() {
                Some(',') => {
                    chars.next();
                }
                Some('}') => {}
                other => return Err(format!("bad label separator {other:?} in {line:?}")),
            }
        }
    }
    if chars.next() != Some(' ') {
        return Err(format!("no space before the value in {line:?}"));
    }
    let value_text: String = chars.collect();
    let value = match value_text.as_str() {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse()
            .map_err(|e| format!("bad value {other:?} in {line:?}: {e}"))?,
    };
    Ok((name, labels, value))
}

proptest! {
    /// The exposition writer's whole-surface property: **arbitrary**
    /// metric names, label names, and label values — any unicode,
    /// including quotes, braces, backslashes, and newlines — emit text
    /// where every sample line re-parses, the sanitized names land in
    /// the exposition alphabet, and label values round-trip exactly
    /// through escape → parse. This is what makes `metrics` safe to
    /// build from user-influenced strings (experiment ids, endpoints).
    #[test]
    fn hostile_names_and_values_emit_a_parseable_exposition(
        raw_name in "[a-z0-9_:{}\",= éµ\n\\\\\\]]{0,12}",
        raw_label in "[a-z0-9_:{}\",= éµ\n\\\\\\]]{0,8}",
        raw_value in "[a-z0-9_:{}\",= éµ\n\\\\\\]]{0,16}",
        counter_value in 0u64..1_000_000,
        gauge_value in -1e9f64..1e9,
        observations in proptest::collection::vec(1e-5f64..1e3, 0..8),
    ) {
        let mut exposition = Exposition::new();
        exposition.counter(&raw_name, "hostile counter", &[(&raw_label, &raw_value)], counter_value);
        exposition.gauge(&format!("g_{raw_name}"), "hostile gauge", &[(&raw_label, &raw_value)], gauge_value);
        let histogram = Histogram::new(log_spaced_buckets(1e-4, 10.0, 4));
        for v in &observations {
            histogram.observe(*v);
        }
        exposition.histogram(
            &format!("h_{raw_name}"),
            "hostile histogram",
            &[(&raw_label, &raw_value)],
            &histogram.snapshot(),
        );
        let text = exposition.finish();

        // Every sample line parses; collect them for the checks below.
        let mut samples = Vec::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_sample(line) {
                Ok(sample) => samples.push(sample),
                Err(e) => prop_assert!(false, "{e}"),
            }
        }

        // The counter round-trips: sanitized name, sanitized label
        // name, and the label *value* exactly as it went in.
        let counter_name = sanitize_metric_name(&raw_name);
        let (_, labels, value) = samples
            .iter()
            .find(|(name, _, _)| name == &counter_name)
            .expect("counter sample present");
        prop_assert_eq!(labels, &vec![(sanitize_label_name(&raw_label), raw_value.clone())]);
        prop_assert_eq!(*value, counter_value as f64);

        // The gauge value survives text exactly (shortest round-trip
        // float formatting).
        let gauge_name = sanitize_metric_name(&format!("g_{raw_name}"));
        let (_, _, value) = samples
            .iter()
            .find(|(name, _, _)| name == &gauge_name)
            .expect("gauge sample present");
        prop_assert_eq!(*value, gauge_value);

        // The histogram renders its full shape: one bucket per bound
        // plus +Inf, and a _count equal to the observations.
        let histogram_name = sanitize_metric_name(&format!("h_{raw_name}"));
        let buckets: Vec<_> = samples
            .iter()
            .filter(|(name, _, _)| name == &format!("{histogram_name}_bucket"))
            .collect();
        prop_assert_eq!(buckets.len(), 5);
        let inf = buckets
            .iter()
            .find(|(_, labels, _)| labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .expect("+Inf bucket present");
        prop_assert_eq!(inf.2, observations.len() as f64);
        let (_, _, count) = samples
            .iter()
            .find(|(name, _, _)| name == &format!("{histogram_name}_count"))
            .expect("_count sample present");
        prop_assert_eq!(*count, observations.len() as f64);

        // And the escaper itself is injective where it must be: the
        // escaped form never contains a bare quote or newline.
        let escaped = escape_label_value(&raw_value);
        prop_assert!(!escaped.contains('\n'));
        prop_assert!(!escaped.replace("\\\"", "").contains('"'));
    }
}

// ---------------------------------------------------------------------
// Nonblocking wire framing: the reactor's FrameBuffer and WriteQueue
// ---------------------------------------------------------------------

/// A writer that accepts only as many bytes per call as its script
/// allows — 0 means `WouldBlock` — cycling through the script: a peer
/// whose socket buffer fills at awkward moments.
struct ShortWriter {
    accepted: Vec<u8>,
    script: Vec<usize>,
    calls: usize,
}

impl std::io::Write for ShortWriter {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<usize> {
        let cap = self.script[self.calls % self.script.len()];
        self.calls += 1;
        if cap == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "send buffer full",
            ));
        }
        let take = cap.min(chunk.len());
        self.accepted.extend_from_slice(&chunk[..take]);
        Ok(take)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A recorded wire session: alternating request/response envelope
/// lines whose payloads mix ASCII with 2-, 3-, and 4-byte UTF-8
/// sequences, so arbitrary byte cuts land mid-character and
/// mid-envelope.
fn record_session(entries: &[(u64, String, String)]) -> Vec<String> {
    entries
        .iter()
        .enumerate()
        .map(|(i, (id, method, payload))| {
            let body = JsonValue::Object(vec![(
                "payload".to_string(),
                JsonValue::String(payload.clone()),
            )]);
            if i % 2 == 0 {
                Request::new(*id, method).with_body(body).to_line()
            } else {
                Response::ok(*id, method).with_body(body).to_line()
            }
        })
        .collect()
}

proptest! {
    /// The framing invariant the whole nonblocking service rests on:
    /// a recorded wire session cut at **arbitrary** byte boundaries —
    /// mid-envelope, mid-UTF-8 sequence, empty segments — reassembles
    /// through [`FrameBuffer`] into the exact original lines, each of
    /// which still parses as its envelope. When the session ends
    /// without a trailing newline (a peer that sends its last line and
    /// hangs up), `take_remainder` recovers that final line too.
    #[test]
    fn wire_sessions_reassemble_across_arbitrary_segmentation(
        entries in proptest::collection::vec(
            (
                proptest::prelude::any::<u64>(),
                "[a-z_]{1,8}",
                "[ -~éµλ中𝄞]{0,24}",
            ),
            1..8,
        ),
        raw_cuts in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..16),
        truncate_final_newline in proptest::prelude::any::<bool>(),
    ) {
        let lines = record_session(&entries);
        let mut stream: Vec<u8> = lines.iter().flat_map(|l| l.bytes()).collect();
        if truncate_final_newline {
            stream.pop();
        }

        // Arbitrary segmentation: sorted unique cut indices into the
        // byte stream, segments fed one at a time.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(stream.len());

        let mut buffer = FrameBuffer::new();
        let mut reassembled = Vec::new();
        let mut start = 0;
        for cut in cuts {
            buffer.extend(&stream[start..cut]);
            start = cut;
            while let Some(line) = buffer.next_line().expect("session bytes are valid UTF-8") {
                reassembled.push(line);
            }
        }
        if let Some(tail) = buffer.take_remainder().expect("tail is valid UTF-8") {
            reassembled.push(tail);
        }
        prop_assert_eq!(buffer.buffered(), 0);

        let expected: Vec<String> = lines
            .iter()
            .map(|l| l.trim_end_matches('\n').to_string())
            .collect();
        prop_assert_eq!(&reassembled, &expected, "byte-identical reassembly");
        for (i, line) in reassembled.iter().enumerate() {
            if i % 2 == 0 {
                let request = Request::from_line(line).expect("request re-parses");
                prop_assert_eq!(request.id, entries[i].0);
                prop_assert_eq!(&request.method, &entries[i].1);
            } else {
                let response = Response::from_line(line).expect("response re-parses");
                prop_assert_eq!(response.id, entries[i].0);
                prop_assert_eq!(&response.kind, &entries[i].1);
            }
        }
    }

    /// The writer-side twin: a [`WriteQueue`] flushed into a peer that
    /// takes arbitrarily few bytes per call (including `WouldBlock`
    /// stalls) delivers the byte stream intact and in order, and the
    /// queue's accounting (`pending`/`is_empty`) stays truthful
    /// throughout.
    #[test]
    fn write_queue_delivers_exact_bytes_through_short_writes(
        chunks in proptest::collection::vec("[ -~éµλ中𝄞]{0,48}", 1..12),
        mut script in proptest::collection::vec(0usize..17, 1..8),
    ) {
        // Guarantee progress: at least one nonzero capacity per cycle.
        script.push(16);
        let mut queue = WriteQueue::new();
        let mut writer = ShortWriter { accepted: Vec::new(), script, calls: 0 };
        let mut expected = Vec::new();
        for chunk in &chunks {
            queue.enqueue(chunk.as_bytes());
            expected.extend_from_slice(chunk.as_bytes());
            // Interleave flush attempts with enqueues, as the reactor does.
            queue.flush_into(&mut writer).expect("short writes are not errors");
            prop_assert!(queue.pending() <= expected.len());
        }
        let mut spins = 0;
        while !queue.is_empty() {
            queue.flush_into(&mut writer).expect("short writes are not errors");
            spins += 1;
            prop_assert!(spins < 100_000, "flush loop must make progress");
        }
        prop_assert_eq!(&writer.accepted, &expected, "exact bytes, in order");
        prop_assert_eq!(queue.pending(), 0);
    }
}
