//! Tracing state for one unit of pipeline work: an engine exchange, a
//! pushed tuple or a FLUSH pass.
//!
//! [`Trace`] bundles the optional observer and slow threshold with the
//! unit's per-phase breakdown. Timing is enabled only when an observer is
//! attached or a threshold is set; otherwise every method is a branch on
//! a `None`/`false` — no clock reads, no allocation, no atomic writes on
//! the hot path (the acceptance criterion of the observability issue).

use std::time::{Duration, Instant};

use sedex_observe::{slow_exchange_record, Event, Observer, Phase, PhaseTotals};

use crate::script::RunOutcome;

/// Tracing state for one unit of work.
pub(crate) struct Trace<'a> {
    obs: Option<&'a dyn Observer>,
    slow: Option<Duration>,
    timing: bool,
    /// Session label and verb attributed in slow-exchange records, when the
    /// caller (the service) knows them.
    session: Option<&'a str>,
    verb: Option<&'a str>,
    /// Accumulated per-phase breakdown.
    pub totals: PhaseTotals,
}

impl<'a> Trace<'a> {
    /// A trace that times phases when `obs` is attached or `slow` is set.
    pub fn new(obs: Option<&'a dyn Observer>, slow: Option<Duration>) -> Self {
        Trace {
            obs,
            slow,
            timing: obs.is_some() || slow.is_some(),
            session: None,
            verb: None,
            totals: PhaseTotals::new(),
        }
    }

    /// Attach multi-tenant attribution carried into slow-exchange records.
    pub fn with_context(mut self, session: Option<&'a str>, verb: Option<&'a str>) -> Self {
        self.session = session;
        self.verb = verb;
        self
    }

    /// Start a phase clock, or `None` when tracing is off.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// End a phase: accumulate into the breakdown and notify the
    /// observer. A `None` start is a no-op.
    #[inline]
    pub fn end(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(t) = started {
            self.add(phase, t.elapsed());
        }
    }

    /// A phase that ran from `from` to `to`, timed by clock reads the
    /// caller made anyway; a no-op when tracing is off.
    #[inline]
    pub fn span(&mut self, phase: Phase, from: Instant, to: Instant) {
        if self.timing {
            self.add(phase, to - from);
        }
    }

    fn add(&mut self, phase: Phase, took: Duration) {
        let nanos = took.as_nanos() as u64;
        self.totals.add(phase, nanos);
        if let Some(o) = self.obs {
            o.event(&Event::Phase { phase, nanos });
        }
    }

    /// Forward an event to the observer, if any.
    #[inline]
    pub fn emit(&self, e: &Event) {
        if let Some(o) = self.obs {
            o.event(e);
        }
    }

    /// Report one repository lookup (`repo_lookup{hit}`).
    #[inline]
    pub fn lookup(&self, hit: bool) {
        self.emit(&Event::RepoLookup { hit, count: 1 });
    }

    /// Report the row-level outcome of one script run.
    #[inline]
    pub fn outcome(&self, delta: &RunOutcome) {
        if self.obs.is_none() {
            return;
        }
        if delta.inserted > 0 {
            self.emit(&Event::RowsInserted {
                count: delta.inserted as u64,
            });
        }
        if delta.merged > 0 {
            self.emit(&Event::EgdMerge {
                count: delta.merged as u64,
            });
        }
        if delta.violations > 0 {
            self.emit(&Event::Violation {
                count: delta.violations as u64,
            });
        }
    }

    /// Close out an exchange: emit [`Event::Exchange`], and — when the
    /// total exceeded the slow threshold — a [`Event::SlowExchange`] plus
    /// the one-line structured record on stderr.
    pub fn finish_exchange(&self, total: Duration, tuples: u64) {
        self.emit(&Event::Exchange {
            nanos: total.as_nanos() as u64,
            tuples,
            count: 1,
        });
        if let Some(threshold) = self.slow {
            if total > threshold {
                self.emit(&Event::SlowExchange {
                    nanos: total.as_nanos() as u64,
                    threshold_nanos: threshold.as_nanos() as u64,
                    phases: &self.totals,
                });
                eprintln!(
                    "{}",
                    slow_exchange_record(
                        total,
                        threshold,
                        tuples,
                        &self.totals,
                        self.session,
                        self.verb,
                    )
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Count(AtomicU64);
    impl Observer for Count {
        fn event(&self, _e: &Event) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn disabled_trace_reads_no_clock_and_emits_nothing() {
        let mut t = Trace::new(None, None);
        let started = t.start();
        assert!(started.is_none(), "no observer + no threshold: no clock");
        t.end(Phase::Match, started);
        t.lookup(true);
        t.outcome(&RunOutcome {
            inserted: 5,
            merged: 1,
            duplicates: 0,
            violations: 1,
        });
        t.finish_exchange(Duration::from_secs(100), 1);
        assert!(t.totals.is_zero());
    }

    #[test]
    fn threshold_alone_enables_timing_without_an_observer() {
        let mut t = Trace::new(None, Some(Duration::from_millis(1)));
        let started = t.start();
        assert!(started.is_some());
        t.end(Phase::ScriptRun, started);
        assert!(!t.totals.is_zero());
    }

    #[test]
    fn observer_receives_phase_lookup_outcome_and_exchange_events() {
        let obs = Count::default();
        let mut t = Trace::new(Some(&obs), None);
        let s = t.start();
        t.end(Phase::TreeBuild, s);
        t.lookup(false);
        t.outcome(&RunOutcome {
            inserted: 2,
            merged: 1,
            duplicates: 0,
            violations: 0,
        });
        t.finish_exchange(Duration::from_micros(5), 1);
        // Phase + lookup + inserted + merged + exchange = 5 events.
        assert_eq!(obs.0.load(Ordering::Relaxed), 5);
    }
}
