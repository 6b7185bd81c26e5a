//! The benchmark's own spans: one span (name, start, end, parent) around
//! each public call the benchmark makes into a layer, kept in memory by a
//! private `obs::Tracer` and written out when the run ends.
//!
//! A traced pass also opens the workspace-wide `obs` gate, so the layers'
//! existing counters and histograms fill in; an untraced pass keeps both
//! off, which is how end-to-end metrics are measured.

use std::sync::atomic::{AtomicBool, Ordering};

pub struct Trace {
    tracer: Option<obs::Tracer>,
    active: AtomicBool,
}

impl Trace {
    /// A recorder; `enabled = false` makes every span inert for the
    /// whole run.
    pub fn new(enabled: bool) -> Self {
        Trace {
            tracer: enabled.then(obs::Tracer::new),
            active: AtomicBool::new(false),
        }
    }

    /// Starts (`true`) or stops a traced pass: the benchmark's spans and
    /// the `obs` gate switch together. A no-op on a disabled recorder.
    pub fn set_active(&self, on: bool) {
        if self.tracer.is_some() {
            self.active.store(on, Ordering::Relaxed);
            obs::set_enabled(on);
        }
    }

    pub fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Opens a span under the thread's innermost open span; inert outside
    /// a traced pass.
    pub fn span(&self, name: &str, fields: &[(&str, String)]) -> obs::SpanGuard {
        match &self.tracer {
            Some(tracer) if self.active() => tracer.span_with_fields(name, fields),
            _ => obs::SpanGuard::inert(),
        }
    }

    /// The innermost open span on this thread, to parent work handed to
    /// another thread.
    pub fn current(&self) -> Option<u64> {
        self.tracer.as_ref().and_then(obs::Tracer::current_span_id)
    }

    /// Opens a span with an explicit parent (for spans on other threads).
    pub fn span_under(&self, parent: Option<u64>, name: &str) -> obs::SpanGuard {
        match &self.tracer {
            Some(tracer) if self.active() => tracer.span_under(parent, name),
            _ => obs::SpanGuard::inert(),
        }
    }

    /// Every recorded span, ordered by start time.
    pub fn spans(&self) -> Vec<obs::SpanRecord> {
        self.tracer
            .as_ref()
            .map(obs::Tracer::snapshot_spans)
            .unwrap_or_default()
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        if self.tracer.is_some() {
            obs::set_enabled(false);
        }
    }
}
