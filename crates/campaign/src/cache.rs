//! The content-keyed result cache, with disk persistence and a
//! versioned model-constants envelope.
//!
//! Keyed by [`UnitKey`] (experiment id + chip + params): the simulation
//! is deterministic, so equal keys mean byte-identical output and the
//! cache can serve any repeat — within one campaign (duplicate units),
//! across campaigns (an immediate re-run of the same spec hits for every
//! unit), or across *processes*: [`ResultCache::save`] writes the store
//! as one JSON document and [`ResultCache::load`] rebuilds it, so a
//! second process running the same spec gets 100% cache hits.
//!
//! A `ResultCache` is a cheap *handle*: cloning shares the underlying
//! store (the execution engine's workers, every service connection, and
//! the orchestrator all hold clones of one cache). The critical sections
//! are a hash-map probe behind one mutex, tiny next to a unit's run
//! time.
//!
//! "Equal keys mean equal output" only holds *per model version*: the
//! unit key digests the experiment's parameters, not the calibration
//! constants the simulation runs on. So every cache carries the
//! [`model digest`](oranges::paper::model_constants_digest) of the
//! constants it was filled under, the disk envelope stamps it, and the
//! loader **invalidates** a file written under different constants —
//! dropping the stale entries so they are recomputed — instead of
//! letting them surface later as inexplicable
//! [`merge_from`](ResultCache::merge_from) conflicts.
//! [`merge_from`](ResultCache::merge_from) honors the same rule for
//! in-memory stores: entries from a cache with a different model digest
//! are dropped as stale, never merged and never conflicting.

use crate::plan::UnitKey;
use oranges::experiments::ExperimentOutput;
use oranges_harness::json::{self, JsonParseError, Member, Tokenizer};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss counters of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over lookups (0.0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheInner {
    store: Mutex<HashMap<UnitKey, Arc<ExperimentOutput>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    model_digest: String,
}

/// A shared, content-keyed store of experiment outputs. Cloning is
/// cheap and shares the store — see the module docs.
#[derive(Debug, Clone)]
pub struct ResultCache {
    inner: Arc<CacheInner>,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new()
    }
}

impl ResultCache {
    /// An empty cache stamped with the current
    /// [`model_constants_digest`](oranges::paper::model_constants_digest).
    pub fn new() -> Self {
        ResultCache::with_model_digest(oranges::paper::model_constants_digest())
    }

    /// An empty cache carrying an explicit model digest. Regular callers
    /// want [`new`](ResultCache::new); this exists for tests and tooling
    /// that model a store produced by a different build.
    pub fn with_model_digest(digest: impl Into<String>) -> Self {
        ResultCache {
            inner: Arc::new(CacheInner {
                store: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                model_digest: digest.into(),
            }),
        }
    }

    /// The model-constants digest this cache's entries were (or will be)
    /// computed under.
    pub fn model_digest(&self) -> &str {
        &self.inner.model_digest
    }

    /// A token identifying this cache *instance* (shared by all clones
    /// of one handle). The execution engine keys its in-flight table by
    /// it, so only submissions against the same store coalesce.
    pub(crate) fn instance_id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Look up a unit; counts a hit or a miss.
    pub fn get(&self, key: &UnitKey) -> Option<Arc<ExperimentOutput>> {
        let found = self
            .inner
            .store
            .lock()
            .expect("cache lock")
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.inner.hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Whether the cache holds `key`, *without* counting a hit or a
    /// miss. The engine's admission check peeks with this so a rejected
    /// submission leaves cache statistics untouched too.
    pub fn contains(&self, key: &UnitKey) -> bool {
        self.inner
            .store
            .lock()
            .expect("cache lock")
            .contains_key(key)
    }

    /// Store a unit's output. Returns the stored handle — if two workers
    /// race on the same key, the first insert wins and both get the same
    /// value (outputs for equal keys are identical by construction).
    ///
    /// The output's canonical JSON is derived before the lock is taken,
    /// so every stored entry holds its bytes and a reader (the service
    /// splicing a `unit` line) never emits.
    pub fn insert(&self, key: UnitKey, output: ExperimentOutput) -> Arc<ExperimentOutput> {
        output.json();
        let mut store = self.inner.store.lock().expect("cache lock");
        store.entry(key).or_insert_with(|| Arc::new(output)).clone()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries: self.inner.store.lock().expect("cache lock").len(),
        }
    }

    /// Drop all entries (statistics are kept).
    pub fn clear(&self) {
        self.inner.store.lock().expect("cache lock").clear();
    }

    /// Persist every entry to `path` as one JSON document, stamped with
    /// this cache's model digest. Entries are written in key order, so
    /// saving the same store always produces the same bytes. Per-unit
    /// wall-times (stamped by the scheduler) travel out-of-band in the
    /// envelope — the sets' own serialization stays wall-free,
    /// preserving value identity. Each entry's `sets` are its output's
    /// canonical JSON, spliced as bytes, and every member name comes
    /// from the tables the loader reads with. Non-finite values are
    /// rejected here, at write time: they would serialize as `null` and
    /// produce a file [`load`](ResultCache::load) can never parse.
    ///
    /// The replace is crash-safe: the document goes to a temp file in
    /// `path`'s directory, is fsynced, and only then renamed over
    /// `path` (the directory is fsynced too, so the rename itself is
    /// durable), so a process dying at any moment leaves either the old
    /// file or the new one — never a torn mix.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CachePersistError> {
        let mut entries: Vec<(UnitKey, Arc<ExperimentOutput>)> = self
            .inner
            .store
            .lock()
            .expect("cache lock")
            .iter()
            .map(|(key, output)| (key.clone(), Arc::clone(output)))
            .collect();
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        for (key, output) in &entries {
            check_finite(key, output)?;
        }
        let text = write_document(&self.inner.model_digest, &entries);
        let path = path.as_ref();
        let temp = temp_sibling(path);
        let replaced = std::fs::File::create(&temp)
            .and_then(|mut file| {
                file.write_all(text.as_bytes())?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&temp, path));
        if replaced.is_err() {
            std::fs::remove_file(&temp).ok();
        }
        replaced
            .and_then(|()| sync_parent_dir(path))
            .map_err(|e| CachePersistError::Io(path.display().to_string(), e.to_string()))
    }

    /// Rebuild a cache from a [`save`](ResultCache::save)d file,
    /// reporting whether the file survived the model-digest check. Each
    /// surviving entry's canonical JSON is derived from its parsed sets
    /// before the entry enters the store, so a loaded result is
    /// value-identical to a freshly computed one — which is what lets a
    /// second process serve the same spec entirely from disk — and its
    /// bytes are ready to splice. Statistics start at zero.
    ///
    /// A file stamped with a *different* model digest was produced under
    /// other calibration constants, and a file carrying a *different
    /// format version* was produced by another build of this software:
    /// either way its entries describe results this build would not
    /// reproduce, so they are **invalidated** — the load succeeds with
    /// an empty store (stamped with the *current* digest) and
    /// [`CacheLoad::invalidated`] counts what was dropped. Malformed
    /// documents (including bytes that are not UTF-8) fail with
    /// [`CachePersistError::Parse`]; unreadable files with
    /// [`CachePersistError::Io`].
    pub fn load_checked(path: impl AsRef<Path>) -> Result<CacheLoad, CachePersistError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| {
            CachePersistError::Io(path.as_ref().display().to_string(), e.to_string())
        })?;
        let text = String::from_utf8(bytes).map_err(|e| CachePersistError::Parse(e.to_string()))?;
        decode_document(&text)
    }

    /// [`load_checked`](ResultCache::load_checked) without the
    /// invalidation report: the common path for callers that only want
    /// a usable (possibly freshly-invalidated) cache.
    pub fn load(path: impl AsRef<Path>) -> Result<ResultCache, CachePersistError> {
        ResultCache::load_checked(path).map(|load| load.cache)
    }

    /// Merge every entry of `other` into this cache — the shard-join
    /// step of the fleet orchestrator.
    ///
    /// Two rules, in order:
    ///
    /// 1. **Model versioning.** If the two caches carry different model
    ///    digests, `other`'s entries are *stale by definition* (they
    ///    were computed under other constants) — all of them are
    ///    dropped, counted in [`MergeStats::stale`], and nothing
    ///    conflicts. A constants bump therefore invalidates instead of
    ///    erroring.
    /// 2. **Strict identity.** Same digest: a key present in both
    ///    stores must carry *byte-identical* canonical JSON (the
    ///    simulation is deterministic, so two honest same-version
    ///    shards can never disagree); identical values merge silently,
    ///    a mismatch fails loudly with [`CacheMergeError::Conflict`]
    ///    and leaves this cache untouched.
    ///
    /// Statistics are unaffected.
    pub fn merge_from(&self, other: &ResultCache) -> Result<MergeStats, CacheMergeError> {
        if other.inner.model_digest != self.inner.model_digest {
            return Ok(MergeStats {
                stale: other.stats().entries,
                ..MergeStats::default()
            });
        }
        // Snapshot the incoming store first (Arc clones, cheap) so the
        // two locks are never held at once: no ABBA deadlock between
        // caches cross-merging on two threads, and a self-merge
        // (`cache.merge_from(&cache)`, e.g. via aliased handles) is
        // safe.
        let incoming: Vec<(UnitKey, Arc<ExperimentOutput>)> = other
            .inner
            .store
            .lock()
            .expect("cache lock")
            .iter()
            .map(|(key, output)| (key.clone(), output.clone()))
            .collect();
        // The comparison below reads canonical bytes under the lock.
        // Every entry was derived as it entered `other`, so this only
        // reads, but it keeps any derivation out of the critical
        // section even so.
        for (_, output) in &incoming {
            output.json();
        }
        let mut store = self.inner.store.lock().expect("cache lock");
        // Validate first so a conflict cannot leave a half-merged store.
        for (key, output) in &incoming {
            if let Some(existing) = store.get(key) {
                if existing.json() != output.json() {
                    return Err(CacheMergeError::Conflict {
                        key: key.clone(),
                        existing_json_len: existing.json().len(),
                        incoming_json_len: output.json().len(),
                    });
                }
            }
        }
        let mut stats = MergeStats::default();
        for (key, output) in incoming {
            match store.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => stats.identical += 1,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(output);
                    stats.added += 1;
                }
            }
        }
        Ok(stats)
    }
}

/// What [`ResultCache::load_checked`] found on disk.
#[derive(Debug)]
pub struct CacheLoad {
    /// The rebuilt cache — empty (but usable, stamped with the current
    /// digest) when the file was invalidated.
    pub cache: ResultCache,
    /// Entries dropped because the file's model digest did not match
    /// this build (0 = the file was current and fully loaded).
    pub invalidated: usize,
    /// The digest stamped in the file.
    pub file_digest: String,
}

/// What a [`ResultCache::merge_from`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Entries newly added from the other cache.
    pub added: usize,
    /// Entries present in both caches with identical value identity.
    pub identical: usize,
    /// Entries dropped because the other cache carried a different
    /// model digest (stale under this build's constants).
    pub stale: usize,
}

/// A merge between same-version caches that disagree — two stores
/// carrying *different* outputs for the same content key. With a
/// deterministic simulation this means one side is corrupt (torn write,
/// tampering), so the merge refuses rather than silently picking a
/// winner. (Cross-version stores never reach this point: a model-digest
/// mismatch drops the stale side as invalidated instead.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMergeError {
    /// The same key maps to two different value identities.
    Conflict {
        /// The disputed key.
        key: UnitKey,
        /// Canonical-JSON length already in the destination cache.
        existing_json_len: usize,
        /// Canonical-JSON length of the conflicting incoming entry.
        incoming_json_len: usize,
    },
}

impl fmt::Display for CacheMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMergeError::Conflict {
                key,
                existing_json_len,
                incoming_json_len,
            } => write!(
                f,
                "cache merge conflict on {key}: value identities differ \
                 ({existing_json_len} vs {incoming_json_len} canonical bytes) — \
                 one store is corrupt (same-version stores can never honestly disagree)"
            ),
        }
    }
}

impl std::error::Error for CacheMergeError {}

/// On-disk format version; bumped on any envelope change. Version 2
/// added the `model_digest` stamp.
const DISK_FORMAT_VERSION: u32 = 2;

/// The document's members, in the order `save` writes them.
const DOCUMENT: [&str; 3] = ["version", "model_digest", "entries"];

/// An entry's key members, written before its output's
/// [`ExperimentOutput::MEMBERS`].
const ENTRY_KEY: [&str; 2] = ["id", "params"];

/// The [`ResultCache::save`] document over key-sorted entries.
fn write_document(model_digest: &str, entries: &[(UnitKey, Arc<ExperimentOutput>)]) -> String {
    let [wall_time_s, rendered, sets] = ExperimentOutput::MEMBERS;
    let mut text = String::new();
    json::write_key(&mut text, '{', DOCUMENT[0]);
    write!(text, "{DISK_FORMAT_VERSION}").expect("writing to a String cannot fail");
    json::write_key(&mut text, ',', DOCUMENT[1]);
    json::escape_into(&mut text, model_digest);
    json::write_key(&mut text, ',', DOCUMENT[2]);
    text.push('[');
    for (index, (key, output)) in entries.iter().enumerate() {
        if index > 0 {
            text.push(',');
        }
        json::write_key(&mut text, '{', ENTRY_KEY[0]);
        json::escape_into(&mut text, &key.id);
        json::write_key(&mut text, ',', ENTRY_KEY[1]);
        json::escape_into(&mut text, &key.params);
        json::write_key(&mut text, ',', wall_time_s);
        match output.wall_time_s() {
            Some(wall) => json::write_f64(&mut text, wall),
            None => text.push_str("null"),
        }
        json::write_key(&mut text, ',', rendered);
        match &output.rendered {
            Some(rendered) => json::escape_into(&mut text, rendered),
            None => text.push_str("null"),
        }
        json::write_key(&mut text, ',', sets);
        text.push_str(output.json());
        text.push('}');
    }
    text.push_str("]}");
    text
}

/// A fresh temp path next to `path` (same directory, so the final
/// rename never crosses a filesystem).
fn temp_sibling(path: &Path) -> PathBuf {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(
        ".{name}.tmp-{}-{}",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Make a rename into `path`'s directory durable by fsyncing the
/// directory (unix; elsewhere rename durability is the platform's).
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if !cfg!(unix) {
        return Ok(());
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Decode a [`ResultCache::save`]d document in one pass, straight from
/// its tokens. Members may come in any order; `entries` can only be
/// read once `version` is known, so when it comes first its text is set
/// aside and decoded after the other members.
pub(crate) fn decode_document(text: &str) -> Result<CacheLoad, CachePersistError> {
    let parse = |message: &str| CachePersistError::Parse(message.to_string());
    let mut tokens = Tokenizer::new(text);
    if !tokens.begin_object()? {
        return Err(parse("cache document is not an object"));
    }
    let (mut version, mut digest, mut entries, mut raw_entries) = (None, None, None, None);
    let mut next = 0;
    while let Some(member) = tokens.next_member(&DOCUMENT, &mut next)? {
        match member {
            Member::Known(0) if version.is_none() => {
                version = Some(tokens.read_or_skip(Tokenizer::f64_value)?.map(|(v, _)| v))
            }
            Member::Known(1) if digest.is_none() => {
                digest = Some(tokens.read_or_skip(Tokenizer::string_value)?)
            }
            Member::Known(2) if entries.is_none() && raw_entries.is_none() => match version {
                Some(Some(version)) => entries = Some(decode_entries(&mut tokens, version)?),
                _ => raw_entries = Some(tokens.raw_value()?),
            },
            _ => tokens.skip_value()?,
        }
    }
    tokens.finish()?;
    let version = version
        .flatten()
        .ok_or_else(|| parse("missing version field"))?;
    let entries = match raw_entries {
        Some(raw) => Some(decode_entries(&mut Tokenizer::new(raw), version)?),
        None => entries,
    }
    .ok_or_else(|| parse("missing entries array"))?;
    if version as u32 != DISK_FORMAT_VERSION {
        // Another build's format (older v1, or a newer one after a
        // downgrade). The envelope shape is unknown, so the entries
        // cannot be trusted or even validated — but a cache is a cache:
        // invalidate and recompute rather than refusing to start (a
        // daemon restarting across an upgrade must come up cold, not
        // crash on its own warm file).
        return Ok(CacheLoad {
            cache: ResultCache::new(),
            invalidated: entries.count,
            file_digest: format!("format-v{}", version as u32),
        });
    }
    let file_digest = digest
        .flatten()
        .ok_or_else(|| parse("missing model_digest field"))?
        .into_owned();
    let cache = ResultCache::new();
    if file_digest != cache.model_digest() {
        // Stale model: the entries would not reproduce under the current
        // constants. They were still decoded (a torn file must fail
        // loudly, not masquerade as a clean invalidation), but none is
        // kept.
        return Ok(CacheLoad {
            cache,
            invalidated: entries.count,
            file_digest,
        });
    }
    // Derive every entry's canonical JSON before the store is locked,
    // as `insert` does.
    for (_, output) in &entries.decoded {
        output.json();
    }
    cache.inner.store.lock().expect("cache lock").extend(
        entries
            .decoded
            .into_iter()
            .map(|(key, output)| (key, Arc::new(output))),
    );
    Ok(CacheLoad {
        cache,
        invalidated: 0,
        file_digest,
    })
}

/// A document's `entries` array.
struct DiskEntries {
    /// Entries in the array.
    count: usize,
    /// The decoded entries, in file order — empty unless the document is
    /// in this build's format.
    decoded: Vec<(UnitKey, ExperimentOutput)>,
}

/// Read the `entries` array: in this build's format every entry is
/// decoded; in another one the entries are only counted.
fn decode_entries(
    tokens: &mut Tokenizer<'_>,
    version: f64,
) -> Result<DiskEntries, CachePersistError> {
    if !tokens.begin_array()? {
        return Err(CachePersistError::Parse(
            "missing entries array".to_string(),
        ));
    }
    let mut entries = DiskEntries {
        count: 0,
        decoded: Vec::new(),
    };
    while tokens.next_item()? {
        if version as u32 == DISK_FORMAT_VERSION {
            entries.decoded.push(decode_entry(tokens, entries.count)?);
        } else {
            tokens.skip_value()?;
        }
        entries.count += 1;
    }
    Ok(entries)
}

/// One disk entry: `id` and `params` alongside the output envelope
/// (`sets`, `rendered`, `wall_time_s`) that [`ExperimentOutput::decode`]
/// reads. An error names the entry by its key, or by its position when
/// the key was not read yet.
fn decode_entry(
    tokens: &mut Tokenizer<'_>,
    index: usize,
) -> Result<(UnitKey, ExperimentOutput), CachePersistError> {
    let (mut id, mut params) = (None, None);
    let output = ExperimentOutput::decode_carried(tokens, &ENTRY_KEY, |member, tokens| {
        let slot = match member {
            Member::Known(0) => &mut id,
            Member::Known(_) => &mut params,
            Member::Other(_) => return Ok(false),
        };
        if slot.is_some() {
            return Ok(false);
        }
        *slot = Some(tokens.read_or_skip(Tokenizer::string_value)?);
        Ok(true)
    });
    let key = match (id.flatten(), params.flatten()) {
        (Some(id), Some(params)) => Some(UnitKey {
            id: id.into_owned(),
            params: params.into_owned(),
        }),
        _ => None,
    };
    let output = output.map_err(|e| {
        let entry = key.as_ref().map_or(format!("#{index}"), UnitKey::to_string);
        CachePersistError::Parse(format!("entry {entry}: {e}"))
    })?;
    let key = key.ok_or_else(|| {
        CachePersistError::Parse(format!(
            "entry #{index} is missing string field 'id' or 'params'"
        ))
    })?;
    Ok((key, output))
}

/// Refuse to persist values the JSON round-trip cannot represent: the
/// emitter writes non-finite floats as `null`, which the loader would
/// reject — better to fail the save than to brick the cache file.
fn check_finite(key: &UnitKey, output: &ExperimentOutput) -> Result<(), CachePersistError> {
    for set in &output.sets {
        if let Some(metric) = set.metrics.iter().find(
            |m| matches!(m.value, oranges_harness::metric::MetricValue::Float(v) if !v.is_finite()),
        ) {
            return Err(CachePersistError::Serialize(format!(
                "entry {key}: metric '{}' has a non-finite value and would not round-trip",
                metric.name
            )));
        }
        if let Some(power) = set.provenance.power {
            let finite = power.package_watts.is_finite()
                && power.energy_j.is_finite()
                && power.window_s.is_finite()
                && power.dvfs_cap.is_finite();
            if !finite {
                return Err(CachePersistError::Serialize(format!(
                    "entry {key}: power context has a non-finite field and would not round-trip"
                )));
            }
        }
    }
    Ok(())
}

/// Failure to persist or restore a cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachePersistError {
    /// Filesystem failure (path, cause).
    Io(String, String),
    /// The in-memory store would not serialize.
    Serialize(String),
    /// The file is not a valid cache document.
    Parse(String),
}

impl fmt::Display for CachePersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CachePersistError::Io(path, cause) => write!(f, "cache io on {path}: {cause}"),
            CachePersistError::Serialize(msg) => write!(f, "cache serialize: {msg}"),
            CachePersistError::Parse(msg) => write!(f, "cache parse: {msg}"),
        }
    }
}

impl std::error::Error for CachePersistError {}

impl From<JsonParseError> for CachePersistError {
    fn from(e: JsonParseError) -> Self {
        CachePersistError::Parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges_harness::metric::MetricSet;

    fn key(id: &str) -> UnitKey {
        UnitKey {
            id: id.to_string(),
            params: "chip=M1".to_string(),
        }
    }

    fn output(tag: f64) -> ExperimentOutput {
        ExperimentOutput::from_sets(
            vec![MetricSet::for_chip("x", "chip=M1", "M1").metric("v", tag, "u")],
            None,
        )
        .expect("serializable")
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oranges-cache-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResultCache::new();
        assert!(cache.get(&key("fig1")).is_none());
        cache.insert(key("fig1"), output(1.0));
        let hit = cache.get(&key("fig1")).expect("stored");
        assert_eq!(hit.sets[0].value("v"), Some(1.0));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn clones_share_the_store_and_statistics() {
        let cache = ResultCache::new();
        let alias = cache.clone();
        alias.insert(key("fig1"), output(1.0));
        assert!(cache.get(&key("fig1")).is_some(), "stored via the alias");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(alias.stats().hits, 1, "one shared hit counter");
        assert_eq!(cache.instance_id(), alias.instance_id());
        assert_ne!(cache.instance_id(), ResultCache::new().instance_id());
    }

    #[test]
    fn first_insert_wins_races() {
        let cache = ResultCache::new();
        let first = cache.insert(key("fig2"), output(1.0));
        let second = cache.insert(key("fig2"), output(2.0));
        assert_eq!(first.json(), second.json());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn distinct_params_are_distinct_entries() {
        let cache = ResultCache::new();
        cache.insert(key("fig1"), output(1.0));
        let other = UnitKey {
            id: "fig1".to_string(),
            params: "chip=M2".to_string(),
        };
        cache.insert(other.clone(), output(2.0));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(
            cache.get(&other).expect("stored").sets[0].value("v"),
            Some(2.0)
        );
    }

    #[test]
    fn clear_keeps_statistics() {
        let cache = ResultCache::new();
        cache.insert(key("fig1"), output(1.0));
        cache.get(&key("fig1"));
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn save_load_round_trips_outputs_walls_and_rendered() {
        let cache = ResultCache::new();
        let mut first = output(1.5);
        first.stamp_wall_time(0.25);
        first.rendered = Some("Table 1\nrow".to_string());
        cache.insert(key("fig1"), first.clone());
        cache.insert(key("tables"), output(3.0));

        let path = temp_path("roundtrip");
        cache.save(&path).expect("save");
        let reloaded = ResultCache::load_checked(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(reloaded.invalidated, 0, "current digest loads fully");
        assert_eq!(reloaded.file_digest, cache.model_digest());
        let reloaded = reloaded.cache;
        assert_eq!(reloaded.stats().entries, 2);
        let hit = reloaded.get(&key("fig1")).expect("persisted entry");
        assert_eq!(hit.json(), first.json(), "canonical identity survives disk");
        assert_eq!(hit.sets, first.sets);
        assert_eq!(hit.rendered.as_deref(), Some("Table 1\nrow"));
        assert_eq!(
            hit.wall_time_s(),
            Some(0.25),
            "wall travels in the envelope"
        );
        assert_eq!(reloaded.get(&key("tables")).unwrap().wall_time_s(), None);
    }

    #[test]
    fn save_writes_the_pinned_bytes() {
        // The writer and the loader share their name tables, so a renamed
        // member would still round-trip. These are the bytes earlier
        // builds wrote: one entry with a wall time and a rendering, one
        // with neither.
        let cache = ResultCache::with_model_digest("0123456789abcdef");
        let mut timed = ExperimentOutput::from_sets(
            vec![MetricSet::for_chip("fig4", "chip=M2;sizes=2048", "M2")
                .with_implementation("GPU-MPS")
                .with_n(2048)
                .with_power(oranges_harness::metric::PowerContext {
                    package_watts: 4.5,
                    energy_j: 9.0,
                    window_s: 2.0,
                    dvfs_cap: 1.0,
                })
                .metric("gflops_per_watt", 200.25, "GFLOPS/W")],
            None,
        )
        .expect("serializable");
        timed.stamp_wall_time(0.125);
        timed.rendered = Some("Fig. 4 \"M2\"\nrow".to_string());
        let tables = ExperimentOutput::from_sets(
            vec![MetricSet::new("tables", "tables=1,2,3").metric("rows", 17i64, "rows")],
            None,
        )
        .expect("serializable");
        let unit = |id: &str, params: &str| UnitKey {
            id: id.to_string(),
            params: params.to_string(),
        };
        cache.insert(unit("tables", "tables=1,2,3"), tables);
        cache.insert(unit("fig4", "chip=M2;sizes=2048"), timed);

        let path = temp_path("pinned");
        cache.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("saved bytes");
        std::fs::remove_file(&path).ok();
        let expected = concat!(
            r#"{"version":2,"model_digest":"0123456789abcdef","entries":["#,
            r#"{"id":"fig4","params":"chip=M2;sizes=2048","wall_time_s":0.125,"#,
            r#""rendered":"Fig. 4 \"M2\"\nrow","sets":[{"provenance":{"experiment":"fig4","#,
            r#""chip":"M2","params":"chip=M2;sizes=2048","power":{"package_watts":4.5,"#,
            r#""energy_j":9,"window_s":2,"dvfs_cap":1}},"implementation":"GPU-MPS","n":2048,"#,
            r#""metrics":[{"name":"gflops_per_watt","value":{"Float":200.25},"#,
            r#""unit":"GFLOPS/W"}]}]},"#,
            r#"{"id":"tables","params":"tables=1,2,3","wall_time_s":null,"rendered":null,"#,
            r#""sets":[{"provenance":{"experiment":"tables","chip":null,"#,
            r#""params":"tables=1,2,3","power":null},"implementation":null,"n":null,"#,
            r#""metrics":[{"name":"rows","value":{"Int":17},"unit":"rows"}]}]}]}"#,
        );
        assert_eq!(text, expected);
    }

    #[test]
    fn save_is_deterministic_across_insertion_orders() {
        let forward = ResultCache::new();
        forward.insert(key("a"), output(1.0));
        forward.insert(key("b"), output(2.0));
        let backward = ResultCache::new();
        backward.insert(key("b"), output(2.0));
        backward.insert(key("a"), output(1.0));

        let (p1, p2) = (temp_path("order1"), temp_path("order2"));
        forward.save(&p1).expect("save forward");
        backward.save(&p2).expect("save backward");
        let (t1, t2) = (
            std::fs::read_to_string(&p1).unwrap(),
            std::fs::read_to_string(&p2).unwrap(),
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
        assert_eq!(t1, t2, "key-sorted save must be byte-stable");
    }

    #[test]
    fn stale_model_digest_invalidates_on_load_instead_of_erroring() {
        // A file produced by a "different build": same format, same
        // entries, different model digest.
        let stale = ResultCache::with_model_digest("0123456789abcdef");
        stale.insert(key("fig1"), output(1.0));
        stale.insert(key("fig2"), output(2.0));
        let path = temp_path("stale-digest");
        stale.save(&path).expect("save");

        let load = ResultCache::load_checked(&path).expect("invalidation is not an error");
        std::fs::remove_file(&path).ok();
        assert_eq!(load.invalidated, 2, "both stale entries dropped");
        assert_eq!(load.file_digest, "0123456789abcdef");
        assert_eq!(load.cache.stats().entries, 0);
        // The returned cache is stamped with the *current* digest, so it
        // is immediately usable (and re-savable) by this build.
        assert_eq!(
            load.cache.model_digest(),
            oranges::paper::model_constants_digest()
        );
    }

    #[test]
    fn other_format_versions_invalidate_instead_of_erroring() {
        // A daemon restarting across an upgrade must come up cold on a
        // previous build's cache file, not crash on it. Model a v1 file
        // (pre-model-digest format) with two entries.
        let path = temp_path("old-format");
        std::fs::write(
            &path,
            "{\"version\":1,\"entries\":[{\"id\":\"a\"},{\"id\":\"b\"}]}",
        )
        .unwrap();
        let load = ResultCache::load_checked(&path).expect("old format invalidates");
        std::fs::remove_file(&path).ok();
        assert_eq!(load.invalidated, 2);
        assert_eq!(load.file_digest, "format-v1");
        assert_eq!(load.cache.stats().entries, 0);
        assert_eq!(
            load.cache.model_digest(),
            oranges::paper::model_constants_digest(),
            "usable, re-savable cache for this build"
        );
    }

    #[test]
    fn stale_files_with_malformed_entries_still_fail_loudly() {
        // Invalidation must not become a corruption amnesty: a torn
        // stale file is a parse error, not a clean empty load.
        let stale = ResultCache::with_model_digest("feedfacefeedface");
        stale.insert(key("fig1"), output(1.0));
        let path = temp_path("stale-torn");
        stale.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("bytes");
        let torn = text.replace("\"sets\"", "\"nope\"");
        assert_ne!(torn, text, "tamper took effect");
        std::fs::write(&path, torn).expect("tamper");
        assert!(matches!(
            ResultCache::load_checked(&path),
            Err(CachePersistError::Parse(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_rejects_non_finite_values_instead_of_bricking_the_file() {
        let cache = ResultCache::new();
        let bad = ExperimentOutput::from_sets(
            vec![MetricSet::for_chip("x", "chip=M1", "M1").metric("v", f64::NAN, "u")],
            None,
        )
        .expect("serializes (as null) in memory");
        cache.insert(key("fig1"), bad);
        let path = temp_path("nonfinite");
        let error = cache.save(&path).expect_err("must refuse to persist NaN");
        assert!(matches!(error, CachePersistError::Serialize(_)), "{error}");
        assert!(!path.exists(), "no partial file left behind");
    }

    #[test]
    fn load_rejects_values_that_decode_to_infinity_naming_the_entry() {
        // `1e999` is valid JSON but parses to +inf, which would re-emit
        // as `null`: accepted, the entry would make the next save fail.
        let cache = ResultCache::new();
        cache.insert(
            key("fig1"),
            ExperimentOutput::from_sets(
                vec![MetricSet::for_chip("x", "chip=M1", "M1")
                    .with_power(oranges_harness::metric::PowerContext {
                        package_watts: 4.5,
                        energy_j: 9.0,
                        window_s: 2.0,
                        dvfs_cap: 1.0,
                    })
                    .metric("v", 1.5, "u")],
                None,
            )
            .expect("serializable"),
        );
        let path = temp_path("infinite");
        cache.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).expect("saved bytes");
        for (finite, forged) in [
            ("{\"Float\":1.5}", "{\"Float\":1e999}"),
            ("\"package_watts\":4.5", "\"package_watts\":-1e999"),
        ] {
            assert!(text.contains(finite), "{text}");
            std::fs::write(&path, text.replace(finite, forged)).expect("forge");
            match ResultCache::load_checked(&path) {
                Err(CachePersistError::Parse(message)) => {
                    assert!(message.contains("entry fig1[chip=M1]"), "{message}")
                }
                other => panic!("a forged {forged} must not load: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_adds_new_and_skips_identical_entries() {
        let destination = ResultCache::new();
        destination.insert(key("fig1"), output(1.0));
        let incoming = ResultCache::new();
        incoming.insert(key("fig1"), output(1.0)); // identical value identity
        incoming.insert(key("fig2"), output(2.0)); // new

        let stats = destination.merge_from(&incoming).expect("clean merge");
        assert_eq!(
            stats,
            MergeStats {
                added: 1,
                identical: 1,
                stale: 0
            }
        );
        assert_eq!(destination.stats().entries, 2);
        assert_eq!(
            destination.get(&key("fig2")).expect("merged").sets[0].value("v"),
            Some(2.0)
        );
    }

    #[test]
    fn merge_drops_entries_from_a_different_model_version_as_stale() {
        let destination = ResultCache::new();
        destination.insert(key("fig1"), output(1.0));
        // Same key, *different* value — under the same digest this would
        // be a conflict; under a different digest it is simply stale.
        let foreign = ResultCache::with_model_digest("cafebabecafebabe");
        foreign.insert(key("fig1"), output(9.0));
        foreign.insert(key("fig2"), output(2.0));

        let stats = destination
            .merge_from(&foreign)
            .expect("stale entries invalidate, never conflict");
        assert_eq!(
            stats,
            MergeStats {
                added: 0,
                identical: 0,
                stale: 2
            }
        );
        assert_eq!(destination.stats().entries, 1, "nothing foreign landed");
        assert_eq!(
            destination.get(&key("fig1")).expect("kept").sets[0].value("v"),
            Some(1.0)
        );
    }

    #[test]
    fn merge_conflicts_fail_loudly_and_leave_destination_untouched() {
        let destination = ResultCache::new();
        destination.insert(key("fig1"), output(1.0));
        let incoming = ResultCache::new();
        incoming.insert(key("fig2"), output(2.0)); // would be added…
        incoming.insert(key("fig1"), output(9.0)); // …but this conflicts

        let error = destination
            .merge_from(&incoming)
            .expect_err("differing identities must not merge");
        let CacheMergeError::Conflict { key: disputed, .. } = &error;
        assert_eq!(disputed.id, "fig1");
        assert!(error.to_string().contains("merge conflict on fig1"));
        // Validate-before-mutate: nothing from the incoming store landed.
        assert_eq!(destination.stats().entries, 1);
        assert!(destination.get(&key("fig2")).is_none());
    }

    #[test]
    fn self_merge_is_safe_and_all_identical() {
        // Aliased handles (cache clones in a shard list) can make a
        // cache merge with itself; that must neither deadlock nor
        // conflict.
        let cache = ResultCache::new();
        cache.insert(key("fig1"), output(1.0));
        cache.insert(key("fig2"), output(2.0));
        let stats = cache.merge_from(&cache.clone()).expect("self-merge");
        assert_eq!(
            stats,
            MergeStats {
                added: 0,
                identical: 2,
                stale: 0
            }
        );
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn merge_is_idempotent() {
        let destination = ResultCache::new();
        destination.insert(key("fig1"), output(1.0));
        let incoming = ResultCache::new();
        incoming.insert(key("fig1"), output(1.0));
        for _ in 0..2 {
            let stats = destination.merge_from(&incoming).expect("merge");
            assert_eq!(
                stats,
                MergeStats {
                    added: 0,
                    identical: 1,
                    stale: 0
                }
            );
        }
        assert_eq!(destination.stats().entries, 1);
    }

    #[test]
    fn load_returns_typed_errors_on_torn_writes_at_every_truncation_point() {
        // Regression: a crash mid-`save` (or a partial copy) leaves a
        // truncated document; `load` must return a typed parse error —
        // never panic — at *any* cut point.
        let cache = ResultCache::new();
        let mut entry = output(1.5);
        entry.stamp_wall_time(0.25);
        entry.rendered = Some("Table\nrow".to_string());
        cache.insert(key("fig1"), entry);
        let path = temp_path("torn");
        cache.save(&path).expect("save");
        let full = std::fs::read(&path).expect("saved bytes");

        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write torn prefix");
            match ResultCache::load(&path) {
                Err(CachePersistError::Parse(_)) => {}
                Err(other) => panic!("cut at {cut}: wrong error class {other}"),
                Ok(_) => panic!("cut at {cut}: truncated file must not load"),
            }
        }
        // The intact document still loads.
        std::fs::write(&path, &full).expect("restore");
        assert_eq!(ResultCache::load(&path).expect("intact").stats().entries, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_an_existing_file_and_leaves_no_temp_residue() {
        let dir =
            std::env::temp_dir().join(format!("oranges-cache-{}-replace", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("cache.json");
        std::fs::write(&path, "an older, torn document").expect("seed old file");

        let cache = ResultCache::new();
        cache.insert(key("fig1"), output(1.5));
        cache.save(&path).expect("save over the old file");
        cache.insert(key("tables"), output(3.0));
        cache.save(&path).expect("save over its own output");

        assert_eq!(ResultCache::load(&path).expect("valid").stats().entries, 2);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|entry| entry.expect("dir entry").file_name())
            .collect();
        assert_eq!(names, ["cache.json"], "no temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_missing_and_malformed_files() {
        assert!(matches!(
            ResultCache::load(temp_path("enoent")),
            Err(CachePersistError::Io(_, _))
        ));
        let path = temp_path("garbage");
        // A foreign version with no entries field at all: malformed, not
        // merely another build's format.
        std::fs::write(&path, "{\"version\":99}").unwrap();
        assert!(matches!(
            ResultCache::load(&path),
            Err(CachePersistError::Parse(_))
        ));
        // Right version but no digest stamp: malformed, not merely stale.
        std::fs::write(&path, "{\"version\":2,\"entries\":[]}").unwrap();
        assert!(matches!(
            ResultCache::load(&path),
            Err(CachePersistError::Parse(_))
        ));
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(
            ResultCache::load(&path),
            Err(CachePersistError::Parse(_))
        ));
        // Bytes that are not UTF-8 are a malformed document too.
        std::fs::write(&path, b"{\"version\":\xff").unwrap();
        assert!(matches!(
            ResultCache::load(&path),
            Err(CachePersistError::Parse(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
