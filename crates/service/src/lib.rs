//! `c4-service`: a persistent analysis daemon (`c4d`) with
//! content-addressed verdict caching, plus the thin `c4` client.
//!
//! The daemon keeps the analysis engine warm across requests and serves
//! repeat submissions from a two-tier verdict cache (`c4::cache`): an
//! in-memory LRU in front of an on-disk store keyed by the stable hash
//! of the *canonicalized* CCL program and the verdict-relevant analysis
//! features. Because the report wire format (`c4::report`) encodes only
//! the deterministic verdict, a cache hit returns bytes identical to a
//! cold run — at any worker count, across daemon restarts.
//!
//! Layering:
//!
//! - [`proto`] — length-prefixed binary frames over Unix-domain or TCP
//!   sockets; std-only, one protocol version, allocation-bounded.
//! - [`reactor`] — the epoll event loop `c4d` and `c4-gateway` share:
//!   listeners, client connections, framing, blocked-dispatch order,
//!   cross-thread notices, and the `/metrics` HTTP listener.
//! - [`job`] — per-job state machine and the bounded scheduler queue
//!   with admission control and drain support.
//! - [`server`] — the daemon: scheduler workers, the cache-then-compute
//!   pipeline, cancellation, graceful shutdown.
//! - [`client`] — a blocking connect-per-request client used by the
//!   `c4` binary and the test suites.

pub mod client;
pub mod conn;
pub mod job;
pub mod poll;
pub mod proto;
pub mod reactor;
pub mod server;

use c4::{AnalysisFeatures, AnalysisResult, CacheKey, CancelToken, Checker};

/// A front-end failure: the submitted program never reached the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// CCL parse error.
    Parse(String),
    /// Abstract interpretation error.
    Interp(String),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Parse(m) => write!(f, "parse error: {m}"),
            AnalysisError::Interp(m) => write!(f, "interpretation error: {m}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Parses `source` and returns its canonical form — the cache-key
/// normalization: any two sources with the same AST canonicalize to the
/// same string.
///
/// # Errors
///
/// [`AnalysisError::Parse`] if the source is not valid CCL.
pub fn canonical_source(source: &str) -> Result<String, AnalysisError> {
    let program = c4_lang::parse(source).map_err(|e| AnalysisError::Parse(e.to_string()))?;
    Ok(c4_lang::canonical(&program))
}

/// The content-addressed cache key for `source` under `features`.
///
/// # Errors
///
/// [`AnalysisError::Parse`] if the source is not valid CCL.
pub fn cache_key(source: &str, features: &AnalysisFeatures) -> Result<CacheKey, AnalysisError> {
    Ok(CacheKey::derive(&canonical_source(source)?, "program", features))
}

/// Runs the full pipeline (parse → abstract history → bounded search)
/// exactly as a direct embedding of the library would.
///
/// # Errors
///
/// [`AnalysisError`] if the front end rejects the program.
pub fn run_analysis(
    source: &str,
    features: &AnalysisFeatures,
) -> Result<AnalysisResult, AnalysisError> {
    run_analysis_cancellable(source, features, None)
}

/// [`run_analysis`] with an optional cooperative cancellation token,
/// checked at the same points as the time budget (between unfoldings
/// and SMT queries).
///
/// # Errors
///
/// [`AnalysisError`] if the front end rejects the program.
pub fn run_analysis_cancellable(
    source: &str,
    features: &AnalysisFeatures,
    cancel: Option<CancelToken>,
) -> Result<AnalysisResult, AnalysisError> {
    let program = c4_lang::parse(source).map_err(|e| AnalysisError::Parse(e.to_string()))?;
    let history =
        c4_lang::abstract_history(&program).map_err(|e| AnalysisError::Interp(e.to_string()))?;
    let mut checker = Checker::new(history, features.clone());
    if let Some(token) = cancel {
        checker = checker.with_cancel(token);
    }
    Ok(checker.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "store { map M; }\ntxn t(k) { M.put(k, 2); }\nsession { t }";

    #[test]
    fn run_analysis_matches_cache_key_normalization() {
        let reformatted = "store{map M;}  txn t ( k ) {\n  M.put(k,2); }\n session {\n t }";
        let f = AnalysisFeatures::default();
        assert_eq!(canonical_source(PROG).unwrap(), canonical_source(reformatted).unwrap());
        assert_eq!(cache_key(PROG, &f).unwrap(), cache_key(reformatted, &f).unwrap());
        let a = run_analysis(PROG, &f).unwrap();
        let b = run_analysis(reformatted, &f).unwrap();
        assert_eq!(a.encode_report(), b.encode_report());
    }

    #[test]
    fn front_end_errors_are_reported_not_panicked() {
        let f = AnalysisFeatures::default();
        assert!(matches!(run_analysis("store {", &f), Err(AnalysisError::Parse(_))));
        assert!(cache_key("not ccl at all", &f).is_err());
    }

    #[test]
    fn pre_cancelled_token_yields_deadline_hit() {
        let token = CancelToken::new();
        token.cancel();
        let res =
            run_analysis_cancellable(PROG, &AnalysisFeatures::default(), Some(token)).unwrap();
        assert!(res.stats.deadline_hit, "cancelled run must be marked partial");
    }
}
