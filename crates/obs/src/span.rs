//! Scope-timing spans.
//!
//! A [`SpanGuard`] measures the wall time from its creation to its drop
//! and records it twice: into a [`Histogram`] (for `/metrics` and
//! p50/p99 queries) and as a completion event in the [`Journal`] (for
//! `/v1/debug/trace`). The [`span!`](crate::span) macro is the
//! convenient form for setup-ish paths; per-event hot paths pre-resolve
//! their histogram once and use
//! [`ObsRegistry::span_cached`](crate::ObsRegistry::span_cached) or
//! record into the histogram directly.

use crate::hist::Histogram;
use crate::journal::{Journal, JournalKind};
use std::sync::Arc;
use std::time::Instant;

/// Records elapsed wall time on drop. Construct through
/// [`ObsRegistry`](crate::ObsRegistry) span methods or the
/// [`span!`](crate::span) macro.
#[derive(Debug)]
pub struct SpanGuard {
    stage: &'static str,
    hist: Arc<Histogram>,
    journal: Arc<Journal>,
    detail: String,
    start: Instant,
}

impl SpanGuard {
    pub(crate) fn new(
        stage: &'static str,
        hist: Arc<Histogram>,
        journal: Arc<Journal>,
        detail: String,
        start: Instant,
    ) -> SpanGuard {
        SpanGuard {
            stage,
            hist,
            journal,
            detail,
            start,
        }
    }

    /// Append `extra` to the journal detail (for facts only known
    /// mid-span, like how many events a batch turned out to hold).
    pub fn note(&mut self, extra: &str) {
        if !self.detail.is_empty() {
            self.detail.push(' ');
        }
        self.detail.push_str(extra);
    }

    /// Nanoseconds elapsed so far (the span keeps running).
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.hist.record(nanos);
        self.journal.push(
            JournalKind::Span,
            self.stage,
            nanos,
            std::mem::take(&mut self.detail),
        );
    }
}

/// Time the enclosing scope into the global registry:
/// `let _span = obs::span!("seal", epoch = n);` records into the
/// `bgp_seal_duration_seconds` histogram and journals
/// `seal … epoch=<n>` when the guard drops. Key-value pairs become the
/// journal detail string; bind the guard to a named variable (`_span`,
/// not `_`) or it drops immediately.
#[macro_export]
macro_rules! span {
    ($stage:literal) => {
        $crate::registry::global().span_named($stage, String::new())
    };
    ($stage:literal, $($k:ident = $v:expr),+ $(,)?) => {{
        let mut detail = String::new();
        $(
            {
                use std::fmt::Write as _;
                if !detail.is_empty() { detail.push(' '); }
                let _ = write!(detail, concat!(stringify!($k), "={}"), $v);
            }
        )+
        $crate::registry::global().span_named($stage, detail)
    }};
}

#[cfg(test)]
mod tests {
    use crate::registry::global;

    #[test]
    fn span_macro_formats_detail_and_records_globally() {
        let observed = || {
            global()
                .histogram_families()
                .into_iter()
                .find(|(family, _)| family == "bgp_span_macro_test_duration_seconds")
                .map_or(0, |(_, snap)| snap.count)
        };
        let before = observed();
        {
            let mut g = crate::span!("span_macro_test", epoch = 7, events = 1 + 1);
            g.note("replayed=0");
        }
        assert_eq!(observed(), before + 1);
        let entry = global()
            .journal()
            .last(64)
            .into_iter()
            .rev()
            .find(|e| e.name == "span_macro_test")
            .expect("journal entry");
        assert_eq!(entry.detail, "epoch=7 events=2 replayed=0");
    }
}
