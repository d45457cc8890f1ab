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

use instrep_asm::Image;
use instrep_sim::RunOutcome;

use crate::coverage::Coverage;
use crate::fxhash::FxHasher;
use crate::metrics::PhaseTimer;
use crate::pipeline::{AnalysisConfig, WorkloadReport};
use crate::telemetry::{Counter, Histogram, TelemetryRegistry};

/// Version of the cache entry format *and* of the serialized report
/// payload. Bump whenever [`WorkloadReport`]'s fields, their meaning,
/// or the codec change: the version participates in key derivation, so
/// every pre-bump entry becomes unaddressable (a guaranteed miss)
/// rather than a misdecoded report.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// Entry-file magic: "IRCACHE" plus a format byte.
const MAGIC: [u8; 8] = *b"IRCACHE\x01";

/// Salt for the second hash lane of [`CacheKey::derive`] (an arbitrary
/// odd constant; it only needs to differ from the first lane's zero
/// initial state).
const LANE_SALT: u64 = 0x6a09_e667_f3bc_c908;

/// Byte offset of the payload within an entry file (see the module docs
/// for the full layout). Exposed so tests can poison payload bytes
/// surgically.
pub const ENTRY_PAYLOAD_OFFSET: usize = 36;

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
    /// configuration, and [`CACHE_SCHEMA_VERSION`].
    pub fn derive(image: &Image, input: &[u8], cfg: &AnalysisConfig) -> CacheKey {
        let mut hi = FxHasher::default();
        let mut lo = FxHasher::default();
        lo.write_u64(LANE_SALT);
        feed(&mut hi, image, input, cfg);
        feed(&mut lo, image, input, cfg);
        CacheKey { hi: hi.finish(), lo: lo.finish() }
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Feeds one hash lane everything that determines an analysis result.
/// Length prefixes keep adjacent variable-length sections from aliasing.
fn feed<H: Hasher>(h: &mut H, image: &Image, input: &[u8], cfg: &AnalysisConfig) {
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
        let timer = self.telemetry.as_ref().map(|_| PhaseTimer::start());
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
        if let (Some(t), Some(timer)) = (&self.telemetry, timer) {
            t.lookup_ns.record(timer.elapsed_ns());
        }
        report
    }

    /// Stores `report` under `key`, replacing any existing entry. The
    /// write is atomic (temp file + rename), so a concurrent reader
    /// sees either the old complete entry or the new one, never a torn
    /// write.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers that treat the cache
    /// as best-effort (the pipeline does) may ignore it.
    pub fn store(&self, key: &CacheKey, report: &WorkloadReport) -> std::io::Result<()> {
        let timer = self.telemetry.as_ref().map(|_| PhaseTimer::start());
        let bytes = entry_bytes(key, &encode_report(report));
        let tmp = self.dir.join(format!(".tmp-{}-{:016x}", std::process::id(), key.lo));
        std::fs::write(&tmp, &bytes)?;
        let result = std::fs::rename(&tmp, self.entry_path(key));
        if let (Some(t), Some(timer)) = (&self.telemetry, timer) {
            t.write_ns.record(timer.elapsed_ns());
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
    e.u64s(r.static_coverage.weights());
    for v in &r.instance_histogram {
        e.f64(*v);
    }
    e.u64s(r.instance_coverage.weights());
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
    let static_coverage = Coverage::new(d.u64s()?);
    let mut instance_histogram = [0.0f64; 5];
    for slot in &mut instance_histogram {
        *slot = d.f64()?;
    }
    let instance_coverage = Coverage::new(d.u64s()?);
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

    fn u64s(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(*v);
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

    fn u64s(&mut self) -> Option<Vec<u64>> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
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
    use crate::pipeline::run_probed;
    use crate::Probes;
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
            run_probed(&image, Vec::new(), &cfg, InterpTier::default(), Probes::none()).unwrap();
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
