//! # oranges-harness — benchmark orchestration and reporting
//!
//! Everything the paper's experimental section (§4) needs that is not a
//! kernel: summary statistics, aligned text tables, ASCII renderings of
//! the four figures, CSV files and JSON reports.
//!
//! - [`stats`]: min/max/mean/median/σ summaries;
//! - [`table`]: aligned text tables (Tables 1–3 renderers live in the
//!   `oranges` crate; this is the generic engine);
//! - [`figure`]: ASCII grouped bars (Fig. 1) and log-scale series charts
//!   (Fig. 2–4);
//! - [`csv`]: CSV writer;
//! - [`json`]: the JSON writing primitives (string escaping, numbers,
//!   member keys) plus a pull tokenizer, with the `JsonValue` tree parser
//!   built on it (kept in-tree so the dependency set stays small);
//! - [`metric`]: the unified typed measurement record ([`MetricSet`]) —
//!   provenance-stamped metrics with generic CSV/JSON/table emitters,
//!   the campaign pipeline's single result currency;
//! - [`obs`]: observability primitives — Prometheus-style text
//!   exposition, concurrent latency histograms, and a non-blocking
//!   campaign event broadcaster (what the service's `metrics` and
//!   `subscribe` methods are built from);
//! - [`envelope`]: newline-delimited JSON request/response envelopes —
//!   the wire framing the campaign service speaks over its socket;
//! - [`transport`]: pluggable byte transports ([`transport::Endpoint`]
//!   addressing, the [`transport::Transport`] trait, Unix-domain and
//!   TCP implementations) — what carries those envelopes between
//!   hosts;
//! - [`reactor`]: a minimal readiness event loop over nonblocking
//!   [`transport::Stream`]s — registration table, wakeup channel,
//!   level-triggered line framing, write queues, and timers — the I/O
//!   plane the campaign service multiplexes its connections on.
//!
//! Every measurement in the workspace flows through one typed record:
//!
//! ```text
//!  runner measurements
//!        │
//!        ▼
//!  MetricSet ──► rows() ──► MetricRow ──► CSV / TextTable
//!   (typed value + unit,         (flat emitter currency;
//!    provenance: chip, id,        lossless both ways via
//!    params digest, wall,         rows_from_csv)
//!    power context)
//!        │
//!        └──► sets_to_json ⇄ sets_from_json (lossless JSON)
//! ```
//!
//! ## Example: building and round-tripping a `MetricSet`
//!
//! ```
//! use oranges_harness::metric::{self, MetricSet};
//!
//! let set = MetricSet::for_chip("fig2", "chip=M4;sizes=256", "M4")
//!     .with_implementation("GPU-MPS")
//!     .with_n(256)
//!     .metric("gflops", 2375.0, "GFLOPS");
//! assert_eq!(set.value("gflops"), Some(2375.0));
//!
//! // Lossless JSON round-trip: parse(sets_to_json(x)) == x.
//! let Ok(json) = metric::sets_to_json(&[set.clone()]);
//! let back = metric::sets_from_json(&json).unwrap();
//! assert_eq!(back, vec![set]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod envelope;
pub mod figure;
pub mod json;
pub mod metric;
pub mod obs;
#[cfg(unix)]
pub mod reactor;
pub mod stats;
pub mod table;
#[cfg(unix)]
pub mod transport;

pub use metric::{Metric, MetricRow, MetricSet, MetricValue, PowerContext, Provenance};
pub use stats::Summary;
pub use table::TextTable;

/// FNV-1a 64-bit hash of `text`, rendered as 16 lowercase hex
/// characters — the workspace's one compact-digest format. Both the
/// campaign report fingerprint and the model-constants digest use this,
/// so the two token formats can never silently diverge.
pub fn fnv1a_64_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}
