//! Exchange reports: the measurements the paper's figures are built from.

use std::time::Duration;

use sedex_observe::{Event, MetricsRegistry, Observer, PhaseTotals, RegistryObserver};
use sedex_storage::InstanceStats;

/// One script-repository lookup, timestamped relative to the start of the
/// exchange — the raw data behind the hit-ratio curve of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitEvent {
    /// Time since the exchange started.
    pub at: Duration,
    /// Whether the lookup was a hit.
    pub hit: bool,
}

/// Counters and timings of one SEDEX (or EDEX) exchange run.
#[derive(Debug, Clone, Default)]
pub struct ExchangeReport {
    /// Target-instance statistics (the quality measure of Figs. 9–10).
    pub stats: InstanceStats,
    /// Script generation time `Tg`: tree building, matching, translation,
    /// script generation and repository bookkeeping.
    pub tg: Duration,
    /// Script execution time `Te`: running insertion statements under egds.
    pub te: Duration,
    /// Source tuples processed directly.
    pub tuples_processed: usize,
    /// Source tuples skipped because they were already *seen* through a
    /// referencing tuple (Section 4.2).
    pub tuples_skipped_seen: usize,
    /// Freshly generated scripts (`n_g`).
    pub scripts_generated: usize,
    /// Script reuses (`n_r`).
    pub scripts_reused: usize,
    /// Tuples with no usable correspondence (nothing inserted).
    pub tuples_unmatched: usize,
    /// Rows inserted into the target.
    pub inserted: usize,
    /// egd merges performed during script runs.
    pub merged: usize,
    /// Hard egd violations.
    pub violations: usize,
    /// Timestamped repository lookups (only when event recording is on).
    pub hit_events: Vec<HitEvent>,
    /// Lookups whose hit event was discarded because the repository's
    /// event buffer was at its cap (`sedex_hit_events_dropped_total`).
    pub hit_events_dropped: usize,
    /// Per-phase time breakdown (`tree_build`, `match`, `translate`,
    /// `scriptgen`, `script_run`). Populated only when an observer is
    /// attached or a slow-exchange threshold is set — fine-grained timing
    /// is otherwise skipped to keep the hot path clock-free.
    pub phases: PhaseTotals,
}

impl ExchangeReport {
    /// A copy of every counter and timing without the hit-event log — what
    /// a point-in-time snapshot of a running report carries. Copies no
    /// heap memory.
    pub(crate) fn without_hit_events(&self) -> ExchangeReport {
        ExchangeReport {
            hit_events: Vec::new(),
            ..*self
        }
    }

    /// Total wall time.
    pub fn total_time(&self) -> Duration {
        self.tg + self.te
    }

    /// Final hit ratio `n_r / (n_r + n_g)`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.scripts_reused + self.scripts_generated;
        if total == 0 {
            0.0
        } else {
            self.scripts_reused as f64 / total as f64
        }
    }

    /// Percentage of lookups that reused a script — the Fig. 15 measure.
    pub fn reuse_percent(&self) -> f64 {
        self.hit_ratio() * 100.0
    }

    /// Replay this report into an observer as aggregate events — one
    /// event per kind, with counts. Feeding a [`RegistryObserver`] this
    /// way yields the same `sedex_*` counters a live observer would have
    /// accumulated during the run, so a registry can be populated either
    /// way and render consistently.
    pub fn replay(&self, obs: &dyn Observer) {
        for (phase, nanos) in self.phases.iter() {
            if nanos > 0 {
                obs.event(&Event::Phase { phase, nanos });
            }
        }
        if self.scripts_reused > 0 {
            obs.event(&Event::RepoLookup {
                hit: true,
                count: self.scripts_reused as u64,
            });
        }
        if self.scripts_generated > 0 {
            obs.event(&Event::RepoLookup {
                hit: false,
                count: self.scripts_generated as u64,
            });
        }
        if self.merged > 0 {
            obs.event(&Event::EgdMerge {
                count: self.merged as u64,
            });
        }
        if self.violations > 0 {
            obs.event(&Event::Violation {
                count: self.violations as u64,
            });
        }
        if self.inserted > 0 {
            obs.event(&Event::RowsInserted {
                count: self.inserted as u64,
            });
        }
        if self.hit_events_dropped > 0 {
            obs.event(&Event::HitEventsDropped {
                count: self.hit_events_dropped as u64,
            });
        }
        obs.event(&Event::Exchange {
            nanos: self.total_time().as_nanos() as u64,
            tuples: self.tuples_processed as u64,
            count: 1,
        });
    }

    /// Record this report's counters into a [`MetricsRegistry`] under the
    /// standard `sedex_*` names (see [`sedex_observe::names`]). Use this
    /// for batch runs with no live observer attached; do not combine both
    /// on one registry or the run is counted twice.
    pub fn record_into(&self, registry: &MetricsRegistry) {
        self.replay(&RegistryObserver::new(registry));
    }

    /// Windowed hit ratio: `n_r / (n_r + n_g)` computed over each of
    /// `buckets` equal time windows (the paper defines the ratio over a
    /// *period* `t`, so dips appear when a new relation's shapes arrive).
    /// Empty windows repeat the previous ratio. Returns `(window end,
    /// ratio)` pairs.
    pub fn windowed_hit_ratio_curve(&self, buckets: usize) -> Vec<(Duration, f64)> {
        if self.hit_events.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let end = self
            .hit_events
            .last()
            .map(|e| e.at)
            .unwrap_or_default()
            .max(Duration::from_nanos(1));
        let mut out = Vec::with_capacity(buckets);
        let mut idx = 0usize;
        let mut prev_ratio = 0.0;
        for b in 1..=buckets {
            let cutoff = end.mul_f64(b as f64 / buckets as f64);
            let mut hits = 0usize;
            let mut total = 0usize;
            while idx < self.hit_events.len() && self.hit_events[idx].at <= cutoff {
                total += 1;
                if self.hit_events[idx].hit {
                    hits += 1;
                }
                idx += 1;
            }
            let ratio = if total == 0 {
                prev_ratio
            } else {
                hits as f64 / total as f64
            };
            prev_ratio = ratio;
            out.push((cutoff, ratio));
        }
        out
    }

    /// Warm-up detail: cumulative hit ratio after the first
    /// 1, 2, 4, 8, … lookups — the "very low at the beginning, then sharply
    /// increases" pattern of Fig. 14 at lookup granularity.
    pub fn warmup_curve(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut hits = 0usize;
        let mut next_sample = 1usize;
        for (i, e) in self.hit_events.iter().enumerate() {
            if e.hit {
                hits += 1;
            }
            if i + 1 == next_sample {
                out.push((i + 1, hits as f64 / (i + 1) as f64));
                next_sample *= 2;
            }
        }
        if let Some(last) = self.hit_events.len().checked_sub(1) {
            if last + 1 != next_sample / 2 {
                out.push((last + 1, hits as f64 / (last + 1) as f64));
            }
        }
        out
    }

    /// The Fig. 14 curve: cumulative hit ratio sampled at `buckets` equal
    /// time intervals over the run. Returns `(time, ratio)` pairs.
    pub fn hit_ratio_curve(&self, buckets: usize) -> Vec<(Duration, f64)> {
        if self.hit_events.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let end = self
            .hit_events
            .last()
            .map(|e| e.at)
            .unwrap_or_default()
            .max(Duration::from_nanos(1));
        let mut out = Vec::with_capacity(buckets);
        let mut idx = 0usize;
        let mut hits = 0usize;
        let mut total = 0usize;
        for b in 1..=buckets {
            let cutoff = end.mul_f64(b as f64 / buckets as f64);
            while idx < self.hit_events.len() && self.hit_events[idx].at <= cutoff {
                total += 1;
                if self.hit_events[idx].hit {
                    hits += 1;
                }
                idx += 1;
            }
            let ratio = if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            };
            out.push((cutoff, ratio));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_and_reuse_percent() {
        let r = ExchangeReport {
            scripts_generated: 25,
            scripts_reused: 75,
            ..ExchangeReport::default()
        };
        assert!((r.hit_ratio() - 0.75).abs() < 1e-12);
        assert!((r.reuse_percent() - 75.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = ExchangeReport::default();
        assert_eq!(r.hit_ratio(), 0.0);
        assert!(r.hit_ratio_curve(10).is_empty());
    }

    #[test]
    fn curve_is_cumulative_and_increasing_for_warmup_pattern() {
        // Misses first, then hits — the Fig. 14 pattern: ratio rises.
        let mut events = Vec::new();
        for i in 0..10 {
            events.push(HitEvent {
                at: Duration::from_millis(i),
                hit: false,
            });
        }
        for i in 10..100 {
            events.push(HitEvent {
                at: Duration::from_millis(i),
                hit: true,
            });
        }
        let r = ExchangeReport {
            hit_events: events,
            ..ExchangeReport::default()
        };
        let curve = r.hit_ratio_curve(10);
        assert_eq!(curve.len(), 10);
        assert!(curve.first().unwrap().1 < curve.last().unwrap().1);
        assert!(curve.last().unwrap().1 > 0.85);
    }

    #[test]
    fn total_time_sums_phases() {
        let r = ExchangeReport {
            tg: Duration::from_secs(2),
            te: Duration::from_secs(3),
            ..ExchangeReport::default()
        };
        assert_eq!(r.total_time(), Duration::from_secs(5));
    }

    fn events_at_millis(specs: &[(u64, bool)]) -> Vec<HitEvent> {
        specs
            .iter()
            .map(|&(ms, hit)| HitEvent {
                at: Duration::from_millis(ms),
                hit,
            })
            .collect()
    }

    #[test]
    fn windowed_curve_empty_windows_carry_the_previous_ratio_forward() {
        // All events land in the first tenth of the run: every later
        // window is empty and must repeat the last computed ratio, not
        // reset to zero.
        let r = ExchangeReport {
            hit_events: events_at_millis(&[(1, false), (2, true), (3, true), (100, true)]),
            ..ExchangeReport::default()
        };
        let curve = r.windowed_hit_ratio_curve(10);
        assert_eq!(curve.len(), 10);
        // Window 1 (0..10ms]: 1 miss + 2 hits = 2/3.
        assert!((curve[0].1 - 2.0 / 3.0).abs() < 1e-12, "{curve:?}");
        // Windows 2..9 are empty: the 2/3 ratio is carried forward.
        for w in &curve[1..9] {
            assert!((w.1 - 2.0 / 3.0).abs() < 1e-12, "{curve:?}");
        }
        // The final window holds the lone trailing hit: ratio 1.
        assert_eq!(curve[9].1, 1.0, "{curve:?}");
    }

    #[test]
    fn windowed_curve_leading_empty_windows_repeat_zero() {
        // Nothing before 95ms: the leading windows have no lookups and no
        // predecessor, so they report 0 until data arrives.
        let r = ExchangeReport {
            hit_events: events_at_millis(&[(95, true), (100, true)]),
            ..ExchangeReport::default()
        };
        let curve = r.windowed_hit_ratio_curve(10);
        for w in &curve[..9] {
            assert_eq!(w.1, 0.0, "{curve:?}");
        }
        assert_eq!(curve[9].1, 1.0, "{curve:?}");
    }

    #[test]
    fn windowed_curve_degenerate_inputs() {
        let empty = ExchangeReport::default();
        assert!(empty.windowed_hit_ratio_curve(10).is_empty());
        let r = ExchangeReport {
            hit_events: events_at_millis(&[(1, true)]),
            ..ExchangeReport::default()
        };
        assert!(r.windowed_hit_ratio_curve(0).is_empty());
        let one = r.windowed_hit_ratio_curve(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].1, 1.0);
    }

    #[test]
    fn warmup_curve_len_exactly_a_power_of_two_has_no_duplicate_tail() {
        // 8 events: samples at 1, 2, 4, 8 — the final event IS the last
        // power-of-two sample, so no extra tail point may be appended.
        let specs: Vec<(u64, bool)> = (0..8).map(|i| (i, i >= 2)).collect();
        let r = ExchangeReport {
            hit_events: events_at_millis(&specs),
            ..ExchangeReport::default()
        };
        let curve = r.warmup_curve();
        let points: Vec<usize> = curve.iter().map(|&(n, _)| n).collect();
        assert_eq!(points, vec![1, 2, 4, 8], "{curve:?}");
        // Cumulative ratio after all 8: 6 hits / 8.
        assert!((curve.last().unwrap().1 - 0.75).abs() < 1e-12, "{curve:?}");
    }

    #[test]
    fn warmup_curve_non_power_of_two_appends_the_final_point() {
        let specs: Vec<(u64, bool)> = (0..6).map(|i| (i, true)).collect();
        let r = ExchangeReport {
            hit_events: events_at_millis(&specs),
            ..ExchangeReport::default()
        };
        let points: Vec<usize> = r.warmup_curve().iter().map(|&(n, _)| n).collect();
        // Samples at 1, 2, 4, then the trailing point at 6.
        assert_eq!(points, vec![1, 2, 4, 6]);
    }

    #[test]
    fn warmup_curve_len_zero_and_one() {
        let none = ExchangeReport::default();
        assert!(none.warmup_curve().is_empty());

        let one = ExchangeReport {
            hit_events: events_at_millis(&[(0, false)]),
            ..ExchangeReport::default()
        };
        let curve = one.warmup_curve();
        assert_eq!(curve, vec![(1, 0.0)]);
    }

    #[test]
    fn record_into_matches_live_observer_mapping() {
        use sedex_observe::{names, Phase};
        let mut phases = PhaseTotals::new();
        phases.add(Phase::Match, 1_000);
        let r = ExchangeReport {
            tuples_processed: 20,
            scripts_generated: 2,
            scripts_reused: 18,
            inserted: 20,
            merged: 3,
            violations: 1,
            tg: Duration::from_millis(4),
            te: Duration::from_millis(1),
            phases,
            ..ExchangeReport::default()
        };
        let reg = MetricsRegistry::new();
        r.record_into(&reg);
        assert_eq!(reg.counter_value(names::EXCHANGE_TOTAL), Some(1));
        assert_eq!(reg.counter_value(names::TUPLES_TOTAL), Some(20));
        assert_eq!(reg.counter_value(names::ROWS_INSERTED_TOTAL), Some(20));
        assert_eq!(reg.counter_value(names::EGD_MERGE_TOTAL), Some(3));
        assert_eq!(reg.counter_value(names::VIOLATION_TOTAL), Some(1));
        let text = sedex_observe::render_prometheus(&reg);
        assert!(
            text.contains("sedex_repo_lookup_total{result=\"hit\"} 18"),
            "{text}"
        );
        assert!(
            text.contains("sedex_repo_lookup_total{result=\"miss\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("sedex_phase_seconds_count{phase=\"match\"} 1"),
            "{text}"
        );
    }
}
