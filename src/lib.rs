//! Facade crate re-exporting the full instruction-repetition stack.
//!
//! See the individual crates for details:
//!
//! * [`isa`] — the SRV32 instruction set.
//! * [`asm`] — the assembler.
//! * [`minicc`] — the MiniC compiler.
//! * [`sim`] — the functional simulator.
//! * [`core`] — the repetition analyses (the paper's contribution).
//! * [`workloads`] — the ten MiniC benchmark programs.
//!
//! The analysis entry point is [`Session`], re-exported here with its
//! supporting types.
//!
//! # Examples
//!
//! Analyze one workload through the builder:
//!
//! ```
//! use instrep::{AnalysisConfig, Session};
//!
//! let image = instrep::minicc::build(r#"
//!     int main() {
//!         int i; int s = 0;
//!         for (i = 0; i < 1000; i++) s += i & 7;
//!         return s & 0xff;
//!     }
//! "#)?;
//! let report = Session::new(AnalysisConfig::default()).run_one(&image, Vec::new())?.report;
//! assert!(report.dynamic_total > 1000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Memoize results in a content-addressed cache — the second run hits
//! and skips simulation entirely:
//!
//! ```
//! use instrep::{AnalysisCache, AnalysisConfig, CacheOutcome, Session};
//!
//! let dir = std::env::temp_dir().join(format!("instrep-facade-doc-{}", std::process::id()));
//! let cache = AnalysisCache::open(&dir)?;
//! let image = instrep::minicc::build(
//!     "int main() { int i; int s = 0; for (i = 0; i < 200; i++) s += i & 3; return s; }",
//! )?;
//! let cfg = AnalysisConfig::default();
//!
//! let cold = Session::new(cfg).cache(&cache).run_one(&image, Vec::new())?;
//! assert_eq!(cold.cache, CacheOutcome::Miss);
//! let warm = Session::new(cfg).cache(&cache).run_one(&image, Vec::new())?;
//! assert_eq!(warm.cache, CacheOutcome::Hit);
//! assert_eq!(format!("{:?}", warm.report), format!("{:?}", cold.report));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use instrep_asm as asm;
pub use instrep_core as core;
pub use instrep_isa as isa;
pub use instrep_minicc as minicc;
pub use instrep_sim as sim;
pub use instrep_workloads as workloads;

pub use instrep_core::{
    AnalysisCache, AnalysisConfig, AnalysisJob, CacheKey, CacheOutcome, InstrumentedReport,
    Session, WorkloadReport, CACHE_SCHEMA_VERSION,
};
