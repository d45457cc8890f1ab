//! Content-addressed on-disk cache of whole-workload analysis results.
//!
//! The paper's subject is exploiting repetition, and the driver's own
//! work repeats wholesale: re-running `instrep-repro` recomputes every
//! workload's analysis from scratch even when nothing changed. This
//! module memoizes the unit that matters — one `(image, input, config)`
//! triple's [`WorkloadReport`] — under a key derived from the *content*
//! of those inputs, so a warm run skips simulation entirely and still
//! prints byte-identical tables.
//!
//! # Key derivation
//!
//! [`CacheKey::derive`] hashes, in order: [`CACHE_SCHEMA_VERSION`],
//! every image field the analyses consume (text words, line table, data
//! bytes, initializer ranges, entry point, and function metadata — the
//! symbol table is deliberately excluded: no analysis reads it), the
//! raw input stream, and every [`AnalysisConfig`] field. Two
//! independently salted [`FxHasher`] passes produce a 128-bit key, which
//! names the entry file (`<32 hex digits>.bin`). Any change to what a
//! run would compute therefore lands on a different file; bumping
//! [`CACHE_SCHEMA_VERSION`] orphans every old entry at once (they can
//! never be addressed again, and a store over a stale same-named file
//! replaces it).
//!
//! The image comes first, so both lanes' state after it can be kept:
//! [`ImageKey::of`] hashes the version and the image once, and
//! [`ImageKey::key`] finishes the lanes with an input and a config. The
//! key is the same one `derive` computes, bit for bit; a caller that
//! keys many jobs on one image (the daemon's memoized workloads) hashes
//! the image once instead of once per job.
//!
//! # On-disk entry layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic "IRCACHE\x01"
//! 8       4     CACHE_SCHEMA_VERSION (u32 LE)
//! 12      8     key.hi (u64 LE)
//! 20      8     key.lo (u64 LE)
//! 28      8     payload length (u64 LE)
//! 36      n     payload: the serialized WorkloadReport
//! 36+n    8     FxHash of the payload bytes (u64 LE)
//! ```
//!
//! All integers are little-endian; floats are stored as IEEE-754 bit
//! patterns, so a loaded report is *bit-identical* to the stored one —
//! the property that keeps cached table output byte-identical.
//!
//! # Failure policy
//!
//! [`AnalysisCache::load`] treats **every** surprise — missing file,
//! short read, bad magic, version or key mismatch, checksum failure,
//! undecodable payload, trailing garbage — as a silent miss (`None`),
//! never an error: a damaged cache costs a recomputation, not a failed
//! run. Detecting a *well-formed but wrong* entry (a poisoned cache) is
//! the job of verify mode (`instrep-repro --cache-verify`), which
//! recomputes on every hit and compares.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use instrep_asm::Image;
use instrep_sim::RunOutcome;

use crate::coverage::Coverage;
use crate::fxhash::FxHasher;
use crate::metrics::ns_between;
use crate::pipeline::{AnalysisConfig, WorkloadReport};
use crate::telemetry::{Counter, Histogram, TelemetryRegistry};

/// Version of the cache entry format *and* of the serialized report
/// payload. Bump whenever [`WorkloadReport`]'s fields, their meaning,
/// or the codec change: the version participates in key derivation, so
/// every pre-bump entry becomes unaddressable (a guaranteed miss)
/// rather than a misdecoded report.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Entry-file magic: "IRCACHE" plus a format byte.
const MAGIC: [u8; 8] = *b"IRCACHE\x01";

/// Salt for the second hash lane of [`ImageKey::of`] (an arbitrary
/// odd constant; it only needs to differ from the first lane's zero
/// initial state).
const LANE_SALT: u64 = 0x6a09_e667_f3bc_c908;

/// Byte offset of the payload within an entry file (see the module docs
/// for the full layout). Exposed so tests can poison payload bytes
/// surgically.
pub const ENTRY_PAYLOAD_OFFSET: usize = 36;

/// Sequence number for temp-file names, so that no two stores in this
/// process (even of one key, from two threads) share a temp file. It
/// orders nothing, so relaxed increments suffice.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A 128-bit content hash identifying one `(image, input, config)`
/// analysis, at the current schema version.
///
/// # Examples
///
/// ```
/// use instrep_core::{AnalysisConfig, CacheKey};
///
/// let image = instrep_minicc::build("int main() { return 0; }")?;
/// let cfg = AnalysisConfig::default();
/// let a = CacheKey::derive(&image, &[], &cfg);
/// // Same content, same key; different input, different key.
/// assert_eq!(a, CacheKey::derive(&image, &[], &cfg));
/// assert_ne!(a, CacheKey::derive(&image, &[1], &cfg));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// First hash lane (unsalted FxHash).
    pub hi: u64,
    /// Second hash lane (salted FxHash).
    pub lo: u64,
}

impl CacheKey {
    /// Derives the key for one analysis from everything that determines
    /// its result: the image content, the input stream, the analysis
    /// configuration, and [`CACHE_SCHEMA_VERSION`]. The same as
    /// `ImageKey::of(image).key(input, cfg)`.
    pub fn derive(image: &Image, input: &[u8], cfg: &AnalysisConfig) -> CacheKey {
        ImageKey::of(image).key(input, cfg)
    }
}

/// The image half of a [`CacheKey`]: both hash lanes after
/// [`CACHE_SCHEMA_VERSION`] and every image field, ready to be finished
/// with an input and a config (see the module docs).
///
/// # Examples
///
/// ```
/// use instrep_core::{AnalysisConfig, CacheKey, ImageKey};
///
/// let image = instrep_minicc::build("int main() { return 0; }")?;
/// let cfg = AnalysisConfig::default();
/// let half = ImageKey::of(&image);
/// for input in [&[][..], &[1, 2, 3]] {
///     assert_eq!(half.key(input, &cfg), CacheKey::derive(&image, input, &cfg));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ImageKey {
    hi: FxHasher,
    lo: FxHasher,
}

impl ImageKey {
    /// Hashes the schema version and `image` into both lanes.
    pub fn of(image: &Image) -> ImageKey {
        let mut hi = FxHasher::default();
        let mut lo = FxHasher::default();
        lo.write_u64(LANE_SALT);
        feed_image(&mut hi, image);
        feed_image(&mut lo, image);
        ImageKey { hi, lo }
    }

    /// The key of one analysis of this image: the lanes finished with
    /// `input` and `cfg`.
    pub fn key(&self, input: &[u8], cfg: &AnalysisConfig) -> CacheKey {
        let (mut hi, mut lo) = (self.hi, self.lo);
        feed_job(&mut hi, input, cfg);
        feed_job(&mut lo, input, cfg);
        CacheKey { hi: hi.finish(), lo: lo.finish() }
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Feeds one hash lane the schema version and every image field an
/// analysis reads. Length prefixes keep adjacent variable-length
/// sections from aliasing.
fn feed_image<H: Hasher>(h: &mut H, image: &Image) {
    h.write_u32(CACHE_SCHEMA_VERSION);
    h.write_u64(image.text.len() as u64);
    for w in &image.text {
        h.write_u32(*w);
    }
    h.write_u64(image.lines.len() as u64);
    for l in &image.lines {
        h.write_u32(*l);
    }
    h.write_u64(image.data.len() as u64);
    h.write(&image.data);
    h.write_u64(image.init_ranges.len() as u64);
    for r in &image.init_ranges {
        h.write_u32(r.start);
        h.write_u32(r.end);
    }
    h.write_u32(image.entry);
    h.write_u64(image.funcs.len() as u64);
    for fm in &image.funcs {
        h.write_u64(fm.name.len() as u64);
        h.write(fm.name.as_bytes());
        h.write_u32(fm.entry);
        h.write_u32(fm.end);
        h.write_u8(fm.arity);
    }
}

/// Feeds one hash lane, after [`feed_image`], the rest of what
/// determines an analysis result: the input stream and the config.
fn feed_job<H: Hasher>(h: &mut H, input: &[u8], cfg: &AnalysisConfig) {
    h.write_u64(input.len() as u64);
    h.write(input);
    h.write_u64(cfg.tracker.max_instances as u64);
    h.write_u64(cfg.reuse.entries as u64);
    h.write_u64(cfg.reuse.ways as u64);
    h.write_u64(cfg.skip);
    h.write_u64(cfg.window);
    h.write_u64(cfg.top_k as u64);
}

/// A directory of cached [`WorkloadReport`]s, one entry file per
/// [`CacheKey`]. Shared by reference across pipeline worker threads;
/// all methods take `&self`.
///
/// # Examples
///
/// ```
/// use instrep_core::{AnalysisCache, AnalysisConfig, CacheKey, Session};
///
/// let dir = std::env::temp_dir().join(format!("instrep-cache-doc-{}", std::process::id()));
/// let cache = AnalysisCache::open(&dir)?;
/// let image = instrep_minicc::build(
///     "int main() { int i; int s = 0; for (i = 0; i < 50; i++) s += i & 3; return s; }",
/// )?;
/// let cfg = AnalysisConfig::default();
///
/// let key = CacheKey::derive(&image, &[], &cfg);
/// assert!(cache.load(&key).is_none(), "cold cache misses");
/// let report = Session::new(cfg).run_one(&image, Vec::new())?.report;
/// cache.store(&key, &report)?;
/// let warm = cache.load(&key).expect("stored entry loads");
/// assert_eq!(format!("{report:?}"), format!("{warm:?}"));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct AnalysisCache {
    dir: PathBuf,
    /// Stale temp files removed by [`AnalysisCache::open`]'s sweep.
    tmp_swept: u64,
    telemetry: Option<CacheTelemetry>,
}

/// Live telemetry handles the cache updates on its hot paths (see
/// [`AnalysisCache::attach_telemetry`]).
#[derive(Debug, Clone)]
struct CacheTelemetry {
    hit: Counter,
    miss: Counter,
    corrupt_miss: Counter,
    store: Counter,
    lookup_ns: Histogram,
    write_ns: Histogram,
}

impl AnalysisCache {
    /// Opens (creating if needed) a cache rooted at `dir`, sweeping any
    /// stale `.tmp-*` files an interrupted temp+rename
    /// [`store`](AnalysisCache::store) left behind. (Temp names embed
    /// the writer's pid, so a *live* concurrent writer's temp file can
    /// only be swept in the unlikely window between its write and
    /// rename — which costs that writer one failed rename and a
    /// recomputation, never a corrupt entry.)
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created. Sweep
    /// failures are ignored — a leftover temp file is unreferenced
    /// garbage, not a correctness hazard.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<AnalysisCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut tmp_swept = 0;
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for entry in rd.filter_map(Result::ok) {
                let name = entry.file_name();
                let is_tmp = name.to_str().is_some_and(|n| n.starts_with(".tmp-"));
                if is_tmp && std::fs::remove_file(entry.path()).is_ok() {
                    tmp_swept += 1;
                }
            }
        }
        Ok(AnalysisCache { dir, tmp_swept, telemetry: None })
    }

    /// Stale temp files [`AnalysisCache::open`]'s sweep removed.
    pub fn tmp_swept(&self) -> u64 {
        self.tmp_swept
    }

    /// Installs live telemetry: hit/miss/corrupt-miss/store counters
    /// and lookup/write latency histograms, updated on every
    /// [`load`](AnalysisCache::load)/[`store`](AnalysisCache::store),
    /// plus a one-time `cache_tmp_swept` credit for the open-time
    /// sweep. Without this call the cache touches no atomics.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        registry.counter("cache_tmp_swept").add(self.tmp_swept);
        self.telemetry = Some(CacheTelemetry {
            hit: registry.counter("cache_hit"),
            miss: registry.counter("cache_miss"),
            corrupt_miss: registry.counter("cache_corrupt_miss"),
            store: registry.counter("cache_store"),
            lookup_ns: registry.histogram("cache_lookup_ns"),
            write_ns: registry.histogram("cache_write_ns"),
        });
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives at (whether or not it exists).
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.bin"))
    }

    /// Loads the report cached under `key`, or `None` on any kind of
    /// miss — absent, truncated, corrupt, or version-mismatched entries
    /// all degrade to a silent recomputation (see the module docs).
    pub fn load(&self, key: &CacheKey) -> Option<WorkloadReport> {
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        let report = match std::fs::read(self.entry_path(key)) {
            Err(_) => {
                // Absent (or unreadable) entry: a plain miss.
                if let Some(t) = &self.telemetry {
                    t.miss.inc();
                }
                None
            }
            Ok(bytes) => {
                let report = parse_entry(&bytes, key);
                if let Some(t) = &self.telemetry {
                    // The file existed, so a parse failure means it was
                    // damaged or foreign — a corrupt miss, worth its own
                    // counter (it should stay 0 on a healthy cache).
                    if report.is_some() {
                        t.hit.inc();
                    } else {
                        t.corrupt_miss.inc();
                    }
                }
                report
            }
        };
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.lookup_ns.record(ns_between(start, Instant::now()));
        }
        report
    }

    /// Stores `report` under `key`, replacing any existing entry. The
    /// write is atomic (temp file + rename), so a concurrent reader
    /// sees either the old complete entry or the new one, never a torn
    /// write. Every store writes its own temp file (pid plus a
    /// process-wide sequence number), so concurrent stores of one key
    /// each rename a complete file into place.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers that treat the cache
    /// as best-effort (the pipeline does) may ignore it.
    pub fn store(&self, key: &CacheKey, report: &WorkloadReport) -> std::io::Result<()> {
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        let bytes = entry_bytes(key, &encode_report(report));
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        // Fixed width: every store's name, and so its allocation count,
        // has the same length.
        let tmp = self.dir.join(format!(".tmp-{}-{seq:016x}", std::process::id()));
        let result =
            std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.write_ns.record(ns_between(start, Instant::now()));
            if result.is_ok() {
                t.store.inc();
            }
        }
        result
    }

    /// Number of entry files currently in the cache directory.
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "bin"))
                .count()
        })
    }
}

/// FxHash of a byte string — the payload checksum.
fn fxhash64(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// Assembles a complete entry file image (header + payload + checksum).
fn entry_bytes(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut b = Vec::with_capacity(ENTRY_PAYLOAD_OFFSET + payload.len() + 8);
    b.extend_from_slice(&MAGIC);
    b.extend_from_slice(&CACHE_SCHEMA_VERSION.to_le_bytes());
    b.extend_from_slice(&key.hi.to_le_bytes());
    b.extend_from_slice(&key.lo.to_le_bytes());
    b.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    b.extend_from_slice(payload);
    b.extend_from_slice(&fxhash64(payload).to_le_bytes());
    b
}

/// Validates an entry file image against `key` and decodes its payload.
/// Every check failure is a miss (`None`).
fn parse_entry(bytes: &[u8], key: &CacheKey) -> Option<WorkloadReport> {
    let mut d = Dec { b: bytes };
    if d.take(8)? != MAGIC {
        return None;
    }
    if d.u32()? != CACHE_SCHEMA_VERSION {
        return None;
    }
    if d.u64()? != key.hi || d.u64()? != key.lo {
        return None;
    }
    let len = usize::try_from(d.u64()?).ok()?;
    let payload = d.take(len)?;
    let checksum = d.u64()?;
    if !d.finished() || checksum != fxhash64(payload) {
        return None;
    }
    decode_report(payload)
}

// --- WorkloadReport codec ---------------------------------------------
//
// A hand-rolled little-endian binary codec (the workspace is hermetic:
// no serde). Encoding is canonical — field order is fixed and floats
// are bit patterns — so two reports are equal iff their encodings are,
// which is what verify mode compares.

/// Serializes a report to the canonical payload bytes. Also used by
/// verify mode as a total equality check over all report fields.
pub(crate) fn encode_report(r: &WorkloadReport) -> Vec<u8> {
    let mut e = Enc { buf: Vec::with_capacity(4096) };
    match r.outcome {
        RunOutcome::Exited(code) => {
            e.u8(0);
            e.u32(code);
        }
        RunOutcome::MaxedOut => e.u8(1),
    }
    e.u64(r.dynamic_total);
    e.u64(r.dynamic_repeated);
    e.u64(r.static_total as u64);
    e.u64(r.static_executed as u64);
    e.u64(r.static_repeated as u64);
    e.u64(r.unique_repeatable);
    e.f64(r.avg_repeats);
    e.coverage(&r.static_coverage);
    for v in &r.instance_histogram {
        e.f64(*v);
    }
    e.coverage(&r.instance_coverage);
    for v in r.global.overall.iter().chain(&r.global.repeated) {
        e.u64(*v);
    }
    e.u64(r.funcs_called as u64);
    e.u64(r.dynamic_calls);
    e.f64(r.all_arg_rate);
    e.f64(r.no_arg_rate);
    e.f64(r.pure_rate);
    e.f64(r.pure_all_arg_rate);
    e.f64s(&r.argset_coverage);
    for v in r.local.overall.iter().chain(&r.local.repeated) {
        e.u64(*v);
    }
    e.u64(r.prologue_top.len() as u64);
    for (name, size, repeated) in &r.prologue_top {
        e.str(name);
        e.u32(*size);
        e.u64(*repeated);
    }
    e.f64(r.prologue_coverage);
    e.f64s(&r.load_value_coverage);
    for v in
        [r.reuse.total, r.reuse.hits, r.reuse.repeated_hits, r.reuse.repeated_total, r.reuse.stale]
    {
        e.u64(v);
    }
    for v in r.classes.overall.iter().chain(&r.classes.repeated) {
        e.u64(*v);
    }
    for v in [r.predict.predictable, r.predict.correct, r.predict.correct_and_repeated] {
        e.u64(v);
    }
    for v in [r.stride.predictable, r.stride.correct] {
        e.u64(v);
    }
    e.buf
}

/// Decodes a payload produced by [`encode_report`]. Any shortfall,
/// overrun, or malformed field yields `None`.
pub(crate) fn decode_report(payload: &[u8]) -> Option<WorkloadReport> {
    let mut d = Dec { b: payload };
    let outcome = match d.u8()? {
        0 => RunOutcome::Exited(d.u32()?),
        1 => RunOutcome::MaxedOut,
        _ => return None,
    };
    let dynamic_total = d.u64()?;
    let dynamic_repeated = d.u64()?;
    let static_total = usize::try_from(d.u64()?).ok()?;
    let static_executed = usize::try_from(d.u64()?).ok()?;
    let static_repeated = usize::try_from(d.u64()?).ok()?;
    let unique_repeatable = d.u64()?;
    let avg_repeats = d.f64()?;
    let static_coverage = d.coverage()?;
    let mut instance_histogram = [0.0f64; 5];
    for slot in &mut instance_histogram {
        *slot = d.f64()?;
    }
    let instance_coverage = d.coverage()?;
    let mut global = crate::GlobalCounts::default();
    for slot in global.overall.iter_mut().chain(&mut global.repeated) {
        *slot = d.u64()?;
    }
    let funcs_called = usize::try_from(d.u64()?).ok()?;
    let dynamic_calls = d.u64()?;
    let all_arg_rate = d.f64()?;
    let no_arg_rate = d.f64()?;
    let pure_rate = d.f64()?;
    let pure_all_arg_rate = d.f64()?;
    let argset_coverage = d.f64s()?;
    let mut local = crate::LocalCounts::default();
    for slot in local.overall.iter_mut().chain(&mut local.repeated) {
        *slot = d.u64()?;
    }
    let n = d.len(20)?; // minimum encoded (name, size, repeated) size
    let mut prologue_top = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let size = d.u32()?;
        let repeated = d.u64()?;
        prologue_top.push((name, size, repeated));
    }
    let prologue_coverage = d.f64()?;
    let load_value_coverage = d.f64s()?;
    let reuse = crate::ReuseStats {
        total: d.u64()?,
        hits: d.u64()?,
        repeated_hits: d.u64()?,
        repeated_total: d.u64()?,
        stale: d.u64()?,
    };
    let mut classes = crate::ClassCounts::default();
    for slot in classes.overall.iter_mut().chain(&mut classes.repeated) {
        *slot = d.u64()?;
    }
    let predict = crate::PredictStats {
        predictable: d.u64()?,
        correct: d.u64()?,
        correct_and_repeated: d.u64()?,
    };
    let stride = crate::StrideStats { predictable: d.u64()?, correct: d.u64()? };
    if !d.finished() {
        return None; // trailing garbage: not an entry we wrote
    }
    Some(WorkloadReport {
        outcome,
        dynamic_total,
        dynamic_repeated,
        static_total,
        static_executed,
        static_repeated,
        unique_repeatable,
        avg_repeats,
        static_coverage,
        instance_histogram,
        instance_coverage,
        global,
        funcs_called,
        dynamic_calls,
        all_arg_rate,
        no_arg_rate,
        pure_rate,
        pure_all_arg_rate,
        argset_coverage,
        local,
        prologue_top,
        prologue_coverage,
        load_value_coverage,
        reuse,
        classes,
        predict,
        stride,
    })
}

/// Canonical little-endian encoder.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// A coverage curve as its `(weight, count)` runs.
    fn coverage(&mut self, c: &Coverage) {
        self.u64(c.runs().len() as u64);
        for &(weight, count) in c.runs() {
            self.u64(weight);
            self.u64(count);
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.f64(*v);
        }
    }
}

/// Bounds-checked little-endian decoder over a borrowed byte slice.
/// Every read returns `None` past the end — garbage input can never
/// panic or over-allocate.
struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() < n {
            return None;
        }
        let (head, tail) = self.b.split_at(n);
        self.b = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A length prefix for elements of at least `elem_size` bytes,
    /// rejected up front if the remaining input could not possibly hold
    /// that many (so corrupt lengths cannot trigger huge allocations).
    fn len(&mut self, elem_size: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n.checked_mul(elem_size)? > self.b.len() {
            return None;
        }
        Some(n)
    }

    fn str(&mut self) -> Option<String> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// A coverage curve's runs, checked by [`Coverage::from_runs`].
    fn coverage(&mut self) -> Option<Coverage> {
        let n = self.len(16)?;
        let runs = (0..n).map(|_| Some((self.u64()?, self.u64()?))).collect::<Option<_>>()?;
        Coverage::from_runs(runs)
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn finished(&self) -> bool {
        self.b.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_probed, Probes};
    use instrep_minicc::build;
    use instrep_sim::InterpTier;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("instrep-cache-{tag}-{}", std::process::id()))
    }

    fn sample() -> (Image, AnalysisConfig, WorkloadReport) {
        let image = build(
            r#"
            int sq(int x) { return x * x; }
            int main() {
                int i; int s = 0;
                for (i = 0; i < 200; i++) s += sq(i & 7);
                return s & 0xff;
            }
            "#,
        )
        .unwrap();
        let cfg = AnalysisConfig::default();
        let report =
            run_probed(&image, Vec::new(), &cfg, InterpTier::default(), &mut Probes::none())
                .unwrap();
        (image, cfg, report)
    }

    #[test]
    fn report_codec_roundtrips_exactly() {
        let (_, _, report) = sample();
        let payload = encode_report(&report);
        let back = decode_report(&payload).expect("payload decodes");
        // Debug covers every field, including f64 bit patterns.
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(encode_report(&back), payload, "re-encoding is canonical");
    }

    #[test]
    fn decode_rejects_any_truncation_without_panicking() {
        let (_, _, report) = sample();
        let payload = encode_report(&report);
        for cut in 0..payload.len() {
            assert!(decode_report(&payload[..cut]).is_none(), "cut at {cut} decoded");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_report(&long).is_none());
        // A damaged byte anywhere either misses or decodes canonically:
        // never to a report that encodes to other bytes (a coverage curve
        // out of run order, say).
        for at in 0..payload.len() {
            for mask in [0x01, 0xff] {
                let mut flipped = payload.clone();
                flipped[at] ^= mask;
                if let Some(r) = decode_report(&flipped) {
                    assert_eq!(encode_report(&r), flipped, "flip {mask:#x} at {at}");
                }
            }
        }
    }

    #[test]
    fn payload_bytes_are_pinned() {
        // Any change to these bytes is a layout change: it must update
        // this pin and bump CACHE_SCHEMA_VERSION, so that old entries
        // miss instead of misdecoding.
        assert_eq!(CACHE_SCHEMA_VERSION, 2);
        let report = WorkloadReport {
            outcome: RunOutcome::Exited(3),
            dynamic_total: 10,
            dynamic_repeated: 6,
            static_total: 5,
            static_executed: 4,
            static_repeated: 2,
            unique_repeatable: 3,
            avg_repeats: 2.0,
            static_coverage: Coverage::new(vec![2, 4]),
            instance_histogram: [0.5, 0.5, 0.0, 0.0, 0.0],
            instance_coverage: Coverage::new(vec![1, 2, 1, 2]),
            global: crate::GlobalCounts::default(),
            funcs_called: 1,
            dynamic_calls: 2,
            all_arg_rate: 0.5,
            no_arg_rate: 0.0,
            pure_rate: 1.0,
            pure_all_arg_rate: 0.5,
            argset_coverage: vec![1.0],
            local: crate::LocalCounts::default(),
            prologue_top: vec![("main".into(), 2, 1)],
            prologue_coverage: 0.25,
            load_value_coverage: Vec::new(),
            reuse: crate::ReuseStats::default(),
            classes: crate::ClassCounts::default(),
            predict: crate::PredictStats::default(),
            stride: crate::StrideStats::default(),
        };
        let zeros = |n: usize| "00".repeat(n);
        let expect = [
            // Outcome: Exited(3).
            "00",
            "03000000",
            // Dynamic total and repeated; static total, executed and
            // repeated; unique repeatable; average repeats (2.0).
            "0a00000000000000",
            "0600000000000000",
            "0500000000000000",
            "0400000000000000",
            "0200000000000000",
            "0300000000000000",
            "0000000000000040",
            // Static coverage: two runs, (4, 1) and (2, 1).
            "0200000000000000",
            "0400000000000000",
            "0100000000000000",
            "0200000000000000",
            "0100000000000000",
            // Instance histogram: 0.5, 0.5, 0, 0, 0.
            "000000000000e03f",
            "000000000000e03f",
            &zeros(24),
            // Instance coverage: two runs, (2, 2) and (1, 2).
            "0200000000000000",
            "0200000000000000",
            "0200000000000000",
            "0100000000000000",
            "0200000000000000",
            // Global counts.
            &zeros(64),
            // Functions called, dynamic calls, then the all-arg, no-arg,
            // pure and pure-all-arg rates.
            "0100000000000000",
            "0200000000000000",
            "000000000000e03f",
            "0000000000000000",
            "000000000000f03f",
            "000000000000e03f",
            // Argument-set coverage: [1.0].
            "0100000000000000",
            "000000000000f03f",
            // Local counts.
            &zeros(160),
            // Prologue top: [("main", 2, 1)], then its coverage (0.25).
            "0100000000000000",
            "0400000000000000",
            "6d61696e",
            "02000000",
            "0100000000000000",
            "000000000000d03f",
            // Load-value coverage: [].
            "0000000000000000",
            // Reuse, class, last-value and stride counts.
            &zeros(40 + 96 + 24 + 16),
        ]
        .concat();
        let payload = encode_report(&report);
        let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expect);
        assert_eq!(format!("{:?}", decode_report(&payload)), format!("{:?}", Some(report)));
    }

    #[test]
    fn key_is_content_addressed() {
        let (image, cfg, _) = sample();
        let base = CacheKey::derive(&image, &[], &cfg);
        assert_eq!(base, CacheKey::derive(&image, &[], &cfg), "deterministic");
        assert_ne!(base, CacheKey::derive(&image, &[7], &cfg), "input changes key");
        let mut other_cfg = cfg;
        other_cfg.window = 12345;
        assert_ne!(base, CacheKey::derive(&image, &[], &other_cfg), "config changes key");
        let other_image = build("int main() { return 1; }").unwrap();
        assert_ne!(base, CacheKey::derive(&other_image, &[], &cfg), "image changes key");
    }

    /// A small image built by hand, so its key does not depend on the
    /// compiler or the assembler.
    fn pinned_image() -> Image {
        Image {
            text: vec![0x2402_0007, 0x0000_000c, 0x03e0_0008],
            lines: vec![1, 1, 2],
            data: b"repetition".to_vec(),
            init_ranges: vec![0x1000_0000..0x1000_0004, 0x1000_0008..0x1000_000a],
            entry: 0x0040_0000,
            funcs: vec![instrep_asm::FuncMeta {
                name: "main".into(),
                entry: 0x0040_0000,
                end: 0x0040_000c,
                arity: 2,
            }],
            ..Image::default()
        }
    }

    #[test]
    fn keys_keep_their_bits() {
        // Every entry on disk is named by this hash. A change to these
        // bits orphans every entry ever written, so it must come with a
        // CACHE_SCHEMA_VERSION bump, never by accident.
        let key = CacheKey::derive(&pinned_image(), b"input", &AnalysisConfig::default());
        assert_eq!((key.hi, key.lo), (0x108f_5053_9f67_d64a, 0x6099_07df_24b9_3cb5));
        assert_eq!(key.to_string(), "108f50539f67d64a609907df24b93cb5");
    }

    #[test]
    fn image_key_finishes_to_the_derived_key() {
        let image = pinned_image();
        let half = ImageKey::of(&image);
        let base = AnalysisConfig::default();
        let mut cfgs = vec![base];
        let mut cfg = base;
        cfg.tracker.max_instances += 1;
        cfgs.push(cfg);
        let mut cfg = base;
        cfg.reuse.entries *= 2;
        cfgs.push(cfg);
        let mut cfg = base;
        cfg.reuse.ways *= 2;
        cfgs.push(cfg);
        cfgs.push(AnalysisConfig { skip: base.skip + 1, ..base });
        cfgs.push(AnalysisConfig { window: base.window / 2, ..base });
        cfgs.push(AnalysisConfig { top_k: base.top_k + 1, ..base });
        let mut keys = Vec::new();
        for cfg in &cfgs {
            for input in [&b""[..], b"x", b"123456789"] {
                let key = CacheKey::derive(&image, input, cfg);
                assert_eq!(half.key(input, cfg), key, "input {input:?}, {cfg:?}");
                keys.push(key);
            }
        }
        // Every config field and every input reaches the key.
        keys.sort_by_key(|k| (k.hi, k.lo));
        keys.dedup();
        assert_eq!(keys.len(), cfgs.len() * 3);
    }

    #[test]
    fn store_then_load_hits_and_roundtrips() {
        let dir = tmp_dir("hit");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        assert!(cache.load(&key).is_none(), "cold cache must miss");
        assert_eq!(cache.entries(), 0);
        cache.store(&key, &report).unwrap();
        assert_eq!(cache.entries(), 1);
        let warm = cache.load(&key).expect("warm cache must hit");
        assert_eq!(format!("{report:?}"), format!("{warm:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_truncated_entries_degrade_to_a_miss() {
        let dir = tmp_dir("corrupt");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        cache.store(&key, &report).unwrap();
        let path = cache.entry_path(&key);
        let pristine = std::fs::read(&path).unwrap();

        // Flip one payload byte: the checksum catches it.
        let mut bytes = pristine.clone();
        bytes[ENTRY_PAYLOAD_OFFSET + 2] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none(), "corrupt entry must miss");

        // Truncate at several depths: header-short, payload-short,
        // checksum-short.
        for cut in [3, ENTRY_PAYLOAD_OFFSET - 1, ENTRY_PAYLOAD_OFFSET + 5, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(cache.load(&key).is_none(), "truncated entry (cut {cut}) must miss");
        }

        // An empty file and non-entry garbage miss too.
        std::fs::write(&path, b"").unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::write(&path, b"not a cache entry at all").unwrap();
        assert!(cache.load(&key).is_none());

        // Storing over the damaged file repairs the entry.
        cache.store(&key, &report).unwrap();
        assert!(cache.load(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_bump_evicts_old_entries() {
        let dir = tmp_dir("bump");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        cache.store(&key, &report).unwrap();

        // Simulate an entry written by a *previous* schema version at
        // the same path: bump the stored version field and re-checksum
        // nothing (the version check fires before the checksum).
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(CACHE_SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.load(&key).is_none(), "version mismatch must miss");

        // A fresh store evicts (replaces) the stale entry in place.
        cache.store(&key, &report).unwrap();
        assert!(cache.load(&key).is_some(), "store replaces the stale entry");
        assert_eq!(cache.entries(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_stale_tmp_files_and_reports_them() {
        let dir = tmp_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A stale temp file from an interrupted writer, plus a real
        // entry that must survive the sweep.
        let stale = dir.join(".tmp-123-00000000deadbeef");
        std::fs::write(&stale, b"half-written entry").unwrap();
        let keeper = dir.join("0123456789abcdef0123456789abcdef.bin");
        std::fs::write(&keeper, b"entry bytes").unwrap();

        let mut cache = AnalysisCache::open(&dir).unwrap();
        assert!(!stale.exists(), "stale temp file must be swept");
        assert!(keeper.exists(), "entry files must survive the sweep");
        assert_eq!(cache.tmp_swept(), 1);

        // Attaching telemetry credits the sweep to a counter.
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let swept = registry.counter("cache_tmp_swept").get();
        assert_eq!(swept, 1);

        // A second open finds nothing left to sweep.
        assert_eq!(AnalysisCache::open(&dir).unwrap().tmp_swept(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_classifies_hits_misses_and_corruption() {
        let dir = tmp_dir("telemetry");
        let mut cache = AnalysisCache::open(&dir).unwrap();
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);

        assert!(cache.load(&key).is_none());
        assert_eq!(registry.counter("cache_miss").get(), 1, "absent entry is a plain miss");
        cache.store(&key, &report).unwrap();
        assert_eq!(registry.counter("cache_store").get(), 1);
        assert!(cache.load(&key).is_some());
        assert_eq!(registry.counter("cache_hit").get(), 1);

        std::fs::write(cache.entry_path(&key), b"garbage").unwrap();
        assert!(cache.load(&key).is_none());
        assert_eq!(registry.counter("cache_corrupt_miss").get(), 1);

        let snap = registry.snapshot();
        let lookup = snap.hists.iter().find(|(n, _)| n == "cache_lookup_ns").unwrap();
        assert_eq!(lookup.1.count, 3, "every load records a lookup latency");
        let write = snap.hists.iter().find(|(n, _)| n == "cache_write_ns").unwrap();
        assert_eq!(write.1.count, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed_and_never_tear() {
        // Two workers storing the same cold key at once, as two daemon
        // workers racing on one request do, while a third loads it.
        let dir = tmp_dir("race");
        let mut cache = AnalysisCache::open(&dir).unwrap();
        let registry = TelemetryRegistry::new();
        cache.attach_telemetry(&registry);
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        let (cache, report) = (&cache, &report);
        let together = std::sync::Barrier::new(2);
        let stored = std::sync::atomic::AtomicBool::new(false);
        let failed: usize = std::thread::scope(|s| {
            let storers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..300)
                            .filter(|_| {
                                together.wait();
                                cache.store(&key, report).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            s.spawn(|| {
                while !stored.load(Ordering::SeqCst) {
                    cache.load(&key);
                }
            });
            let failed = storers.into_iter().map(|h| h.join().unwrap()).sum();
            stored.store(true, Ordering::SeqCst);
            failed
        });
        assert_eq!(failed, 0, "stores of one key must not collide");
        assert_eq!(registry.counter("cache_corrupt_miss").get(), 0, "a load saw a torn entry");
        assert_eq!(registry.counter("cache_store").get(), 600);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 1, "only the entry remains, no temp files");
        assert!(cache.load(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_key_inside_file_misses() {
        let dir = tmp_dir("key");
        let cache = AnalysisCache::open(&dir).unwrap();
        let (image, cfg, report) = sample();
        let key = CacheKey::derive(&image, &[], &cfg);
        // A valid entry for a different key, copied to this key's path
        // (e.g. a mis-rename), must not be trusted.
        let other = CacheKey { hi: key.hi ^ 1, lo: key.lo };
        let bytes = entry_bytes(&other, &encode_report(&report));
        std::fs::write(cache.entry_path(&key), &bytes).unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
