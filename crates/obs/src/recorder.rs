//! The [`Recorder`] trait, the inert [`NoopRecorder`], and the cheap
//! clonable [`Metrics`] handle call sites hold.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A typed attribute value attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A boolean flag (e.g. `cached`).
    Bool(bool),
    /// An unsigned integer (ids, counts).
    U64(u64),
    /// A float (utilities, payments).
    F64(f64),
    /// A string (stage names, causes).
    Str(String),
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// The sink every metric funnels through.
///
/// Implementations must be cheap to call and must not panic; the
/// pipeline treats recording as infallible. `span_start`/`span_end` are
/// paired by the opaque id `span_start` returns.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Producers use this to skip
    /// attribute construction and clock reads entirely.
    fn enabled(&self) -> bool;

    /// Opens a span; the returned id is passed back to [`Recorder::span_end`].
    fn span_start(&self, name: &str, attrs: &[(&'static str, AttrValue)]) -> u64;

    /// Closes the span `id` with its measured wall-clock time.
    fn span_end(&self, id: u64, elapsed: Duration);

    /// Records an untimed point event.
    fn event(&self, name: &str, attrs: &[(&'static str, AttrValue)]);

    /// Adds `delta` to the counter `name`.
    fn add(&self, name: &str, delta: u64);

    /// Sets the gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);

    /// Folds `value` into the histogram `name`.
    fn observe(&self, name: &str, value: f64);
}

/// The do-nothing recorder: every method is an empty inline body, so
/// instrumentation behind a [`Metrics::enabled`] check is free.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn span_start(&self, _name: &str, _attrs: &[(&'static str, AttrValue)]) -> u64 {
        0
    }

    #[inline(always)]
    fn span_end(&self, _id: u64, _elapsed: Duration) {}

    #[inline(always)]
    fn event(&self, _name: &str, _attrs: &[(&'static str, AttrValue)]) {}

    #[inline(always)]
    fn add(&self, _name: &str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _name: &str, _value: f64) {}

    #[inline(always)]
    fn observe(&self, _name: &str, _value: f64) {}
}

/// A cheap clonable handle to a shared [`Recorder`].
///
/// This is what travels through `EngineConfig`: `Default` is the noop
/// recorder, so instrumented code paths cost nothing unless a real
/// recorder is installed.
#[derive(Clone)]
pub struct Metrics {
    recorder: Arc<dyn Recorder>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::noop()
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled() {
            f.write_str("Metrics(recording)")
        } else {
            f.write_str("Metrics(noop)")
        }
    }
}

impl Metrics {
    /// A handle over `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Metrics { recorder }
    }

    /// The inert handle (records nothing).
    pub fn noop() -> Self {
        Metrics {
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// Whether the underlying recorder keeps anything. Check this before
    /// building attributes or reading clocks on hot paths.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Opens a timed span; the guard records the elapsed time on drop
    /// (or on [`Span::end`]). Disabled recorders never read the clock.
    #[allow(
        clippy::disallowed_types,
        reason = "span timing is this layer's job; redaction strips it from deterministic output"
    )]
    pub fn span(&self, name: &str, attrs: &[(&'static str, AttrValue)]) -> Span<'_> {
        if !self.enabled() {
            return Span {
                metrics: self,
                id: 0,
                start: None,
            };
        }
        let id = self.recorder.span_start(name, attrs);
        Span {
            metrics: self,
            id,
            start: Some(std::time::Instant::now()),
        }
    }

    /// Records a span whose duration was measured elsewhere (e.g. on a
    /// worker thread) — opened and closed immediately with `elapsed`.
    pub fn span_at(&self, name: &str, attrs: &[(&'static str, AttrValue)], elapsed: Duration) {
        if self.enabled() {
            let id = self.recorder.span_start(name, attrs);
            self.recorder.span_end(id, elapsed);
        }
    }

    /// Records an untimed point event.
    pub fn event(&self, name: &str, attrs: &[(&'static str, AttrValue)]) {
        self.recorder.event(name, attrs);
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.recorder.add(name, delta);
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.recorder.gauge(name, value);
    }

    /// Folds `value` into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.recorder.observe(name, value);
    }
}

/// An open span; records its monotonic elapsed time when dropped.
#[must_use = "a span records nothing until it is dropped or ended"]
#[allow(
    clippy::disallowed_types,
    reason = "span timing is this layer's job; redaction strips it from deterministic output"
)]
pub struct Span<'a> {
    metrics: &'a Metrics,
    id: u64,
    start: Option<std::time::Instant>,
}

impl Span<'_> {
    /// Closes the span explicitly (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.metrics.recorder.span_end(self.id, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let metrics = Metrics::noop();
        assert!(!metrics.enabled());
        let span = metrics.span("stage", &[("stage", "solve".into())]);
        metrics.add("c", 1);
        metrics.gauge("g", 2.0);
        metrics.observe("h", 3.0);
        metrics.event("e", &[]);
        span.end();
        assert_eq!(format!("{metrics:?}"), "Metrics(noop)");
    }

    #[test]
    fn default_is_noop() {
        assert!(!Metrics::default().enabled());
    }

    #[test]
    fn attr_conversions() {
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
        assert_eq!(AttrValue::from(3usize), AttrValue::U64(3));
        assert_eq!(AttrValue::from(3u64), AttrValue::U64(3));
        assert_eq!(AttrValue::from(0.5), AttrValue::F64(0.5));
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(AttrValue::from(String::from("y")), AttrValue::Str("y".into()));
    }
}
