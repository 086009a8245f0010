//! Alert rules over the registry.
//!
//! An [`AlertRule`] is `name>threshold@N`: fire once the selected signal
//! has been over `threshold` for N consecutive evaluations, clear on the
//! first one under it. An [`AlertState`] holds a rule set and the
//! registry's previous per-family totals — nothing older — so each
//! [`evaluate`](AlertState::evaluate) sees the window since the last
//! one: a per-second rate, and for histograms the p50/p99 of *this
//! window's* observations (consecutive bucket snapshots diffed, so a
//! long-running daemon's tail is visible, not drowned by its history).
//! Firing and clearing log on target `"alert"`, move the
//! `bgp_alerts_firing` gauge, and surface as ordered `alert:{name}`
//! reasons in `/healthz`'s degraded state.
//!
//! Time is an input: a window opens at the instant [`AlertState::new`]
//! is given and closes at the one [`evaluate`](AlertState::evaluate) is
//! given, so a rate is the counter's move over exactly that span. Only
//! [`spawn_sampler`]'s thread reads the clock: it runs the evaluation on
//! a fixed interval (`--sample-interval` in `bgp-served`, started only
//! when `--alert-rules` is given).

use crate::hist::HistogramSnapshot;
use crate::registry::{Gauge, ObsRegistry};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a rule's threshold is compared against. A family's label sets
/// are summed into one signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSelector {
    /// The family's current value (counter total, gauge level,
    /// histogram observation count).
    Value(String),
    /// The family's per-second delta-rate over the window.
    Rate(String),
    /// The family's window p50 in nanoseconds.
    P50(String),
    /// The family's window p99 in nanoseconds.
    P99(String),
    /// The quarantined share of the feed ([`quarantine_ratio`]) from the
    /// serve-side `bgp_serve_quarantined_total` and
    /// `bgp_serve_events_ingested_total`.
    QuarantineRatio,
}

/// The quarantined share of a feed, `quarantined / (quarantined +
/// ingested)`, 0 when nothing was quarantined: what the
/// `quarantine_rate` selector and the daemon's `quarantine_rate` health
/// reason both judge.
pub fn quarantine_ratio(quarantined: u64, ingested: u64) -> f64 {
    quarantined as f64 / (quarantined + ingested).max(1) as f64
}

/// One parsed alert rule: fire once the selected signal exceeds
/// `threshold` for `windows` consecutive evaluations.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name as written in the spec (the `/healthz` reason is
    /// `alert:{name}`).
    pub name: String,
    /// What the threshold compares against.
    pub selector: MetricSelector,
    /// Threshold (nanoseconds for quantile selectors; durations like
    /// `50ms` in the spec are converted at parse time). Always finite.
    pub threshold: f64,
    /// Consecutive over-threshold windows required to fire.
    pub windows: u32,
}

/// Shorthand names wired to the daemon's well-known families.
fn resolve_selector(name: &str) -> MetricSelector {
    match name {
        "seal_p99" => MetricSelector::P99("bgp_stream_seal_duration_seconds".to_string()),
        "seal_p50" => MetricSelector::P50("bgp_stream_seal_duration_seconds".to_string()),
        "archive_sink_queue" => MetricSelector::Value("bgp_archive_sink_queue_depth".to_string()),
        "quarantine_rate" => MetricSelector::QuarantineRatio,
        other => {
            if let Some(fam) = other.strip_suffix("_p50") {
                MetricSelector::P50(fam.to_string())
            } else if let Some(fam) = other.strip_suffix("_p99") {
                MetricSelector::P99(fam.to_string())
            } else if let Some(fam) = other.strip_suffix("_rate") {
                MetricSelector::Rate(fam.to_string())
            } else {
                MetricSelector::Value(other.to_string())
            }
        }
    }
}

/// Parse a threshold: a bare float, or a duration (`ns`/`us`/`ms`/`s`)
/// converted to nanoseconds. `f64::from_str` also accepts `nan`, `inf`
/// and overflows `1e400` to infinity — thresholds no signal can cross
/// (or none can stay under) — so anything non-finite is refused.
fn parse_threshold(raw: &str) -> Result<f64, String> {
    let (digits, scale) = if let Some(d) = raw.strip_suffix("ms") {
        (d, 1e6)
    } else if let Some(d) = raw.strip_suffix("us") {
        (d, 1e3)
    } else if let Some(d) = raw.strip_suffix("ns") {
        (d, 1.0)
    } else if let Some(d) = raw.strip_suffix('s') {
        (d, 1e9)
    } else {
        (raw, 1.0)
    };
    match digits.parse::<f64>() {
        Ok(v) if (v * scale).is_finite() => Ok(v * scale),
        Ok(_) => Err(format!("threshold {raw:?} is not a finite number")),
        Err(_) => Err(format!("bad threshold {raw:?}")),
    }
}

/// Parse a semicolon-separated rule spec, e.g.
/// `seal_p99>50ms@3;archive_sink_queue>64@5;quarantine_rate>0.05@10`.
/// Rule names must be distinct: the name is all `/healthz` shows.
pub fn parse_alert_rules(spec: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules: Vec<AlertRule> = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, rest) = part
            .split_once('>')
            .ok_or_else(|| format!("rule {part:?}: expected name>threshold@windows"))?;
        let (threshold, windows) = rest
            .split_once('@')
            .ok_or_else(|| format!("rule {part:?}: expected name>threshold@windows"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("rule {part:?}: empty name"));
        }
        if rules.iter().any(|r| r.name == name) {
            return Err(format!(
                "rule {part:?}: a rule named {name:?} already exists"
            ));
        }
        let windows: u32 = windows
            .trim()
            .parse()
            .map_err(|_| format!("rule {part:?}: bad window count {windows:?}"))?;
        if windows == 0 {
            return Err(format!("rule {part:?}: window count must be >= 1"));
        }
        rules.push(AlertRule {
            name: name.to_string(),
            selector: resolve_selector(name),
            threshold: parse_threshold(threshold.trim())
                .map_err(|e| format!("rule {part:?}: {e}"))?,
            windows,
        });
    }
    Ok(rules)
}

/// What one evaluation leaves for the next: the registry's per-family
/// totals at that instant, and each rule's standing.
#[derive(Debug)]
struct Window {
    at: Instant,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, HistogramSnapshot)>,
    /// Per-rule consecutive over-threshold evaluations.
    streaks: Vec<u32>,
    firing: Vec<bool>,
    evaluations: u64,
}

/// `family`'s entry in a per-family list (sorted by family, as the
/// registry returns them).
fn family_of<'a, V>(families: &'a [(String, V)], family: &str) -> Option<&'a V> {
    families
        .binary_search_by(|(f, _)| f.as_str().cmp(family))
        .ok()
        .map(|at| &families[at].1)
}

/// A rule set and its live firing state over one registry.
#[derive(Debug)]
pub struct AlertState {
    rules: Vec<AlertRule>,
    obs: Arc<ObsRegistry>,
    gauge: Arc<Gauge>,
    prev: Mutex<Window>,
}

impl AlertState {
    /// State over `rules`, reading `obs` and registering the
    /// `bgp_alerts_firing` gauge on it. The first window opens at `now`.
    pub fn new(rules: Vec<AlertRule>, obs: Arc<ObsRegistry>, now: Instant) -> AlertState {
        let gauge = obs.gauge(
            "bgp_alerts_firing",
            "Alert rules currently over threshold",
            &[],
        );
        AlertState {
            prev: Mutex::new(Window {
                at: now,
                counters: Vec::new(),
                gauges: Vec::new(),
                hists: Vec::new(),
                streaks: vec![0; rules.len()],
                firing: vec![false; rules.len()],
                evaluations: 0,
            }),
            rules,
            obs,
            gauge,
        }
    }

    /// The carried-over state. Every field is valid after each single
    /// store, so a panic mid-evaluation must not take `/healthz` (which
    /// reads [`firing`](Self::firing)) down with it: recover the guard.
    fn window(&self) -> std::sync::MutexGuard<'_, Window> {
        self.prev
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Names of currently firing rules, spec order.
    pub fn firing(&self) -> Vec<String> {
        let prev = self.window();
        self.rules
            .iter()
            .zip(&prev.firing)
            .filter(|(_, &firing)| firing)
            .map(|(rule, _)| rule.name.clone())
            .collect()
    }

    /// Evaluations run so far.
    pub fn evaluations(&self) -> u64 {
        self.window().evaluations
    }

    /// Close the window the previous call opened, at `now`: read the
    /// registry, judge every rule against what moved since, and keep the
    /// new totals for the next call. A family that is not registered
    /// reads as under threshold.
    pub fn evaluate(&self, now: Instant) {
        let counters = self.obs.counter_families();
        let gauges = self.obs.gauge_families();
        let hists = self.obs.histogram_families();
        let mut prev = self.window();
        // Guard against a zero-length window (two calls given one
        // instant): rates divide by at least 1 µs.
        let elapsed = now
            .saturating_duration_since(prev.at)
            .as_secs_f64()
            .max(1e-6);

        // The window's own distribution: consecutive (non-cumulative)
        // bucket snapshots diffed. `None` when nothing was observed.
        let window_of = |family: &str| -> Option<HistogramSnapshot> {
            let mut window = family_of(&hists, family)?.clone();
            if let Some(before) = family_of(&prev.hists, family) {
                for (b, old) in window.buckets.iter_mut().zip(before.buckets) {
                    *b = b.saturating_sub(old);
                }
                window.count = window.count.saturating_sub(before.count);
            }
            (window.count > 0).then_some(window)
        };
        let counter = |family: &str| family_of(&counters, family).copied();
        let signal = |selector: &MetricSelector| -> Option<f64> {
            match selector {
                MetricSelector::Value(f) => counter(f)
                    .map(|v| v as f64)
                    .or_else(|| family_of(&gauges, f).map(|&v| v as f64))
                    .or_else(|| family_of(&hists, f).map(|h| h.count as f64)),
                MetricSelector::Rate(f) => {
                    let moved = if let Some(v) = counter(f) {
                        let before = family_of(&prev.counters, f).copied().unwrap_or(0);
                        v.saturating_sub(before) as f64
                    } else if let Some(&v) = family_of(&gauges, f) {
                        v.saturating_sub(family_of(&prev.gauges, f).copied().unwrap_or(0)) as f64
                    } else {
                        family_of(&hists, f)?;
                        window_of(f).map_or(0.0, |w| w.count as f64)
                    };
                    Some(moved / elapsed)
                }
                MetricSelector::P50(f) => window_of(f).map(|w| w.quantile_nanos(0.5) as f64),
                MetricSelector::P99(f) => window_of(f).map(|w| w.quantile_nanos(0.99) as f64),
                MetricSelector::QuarantineRatio => Some(quarantine_ratio(
                    counter("bgp_serve_quarantined_total").unwrap_or(0),
                    counter("bgp_serve_events_ingested_total").unwrap_or(0),
                )),
            }
        };
        let over: Vec<bool> = self
            .rules
            .iter()
            .map(|rule| signal(&rule.selector).is_some_and(|v| v > rule.threshold))
            .collect();

        for (i, (rule, over)) in self.rules.iter().zip(over).enumerate() {
            if over {
                prev.streaks[i] += 1;
                if prev.streaks[i] >= rule.windows && !prev.firing[i] {
                    prev.firing[i] = true;
                    self.gauge.add(1);
                    crate::warn!(
                        "alert",
                        "firing rule={} threshold={} windows={}",
                        rule.name,
                        rule.threshold,
                        rule.windows
                    );
                }
            } else {
                prev.streaks[i] = 0;
                if prev.firing[i] {
                    prev.firing[i] = false;
                    self.gauge.add(-1);
                    crate::info!("alert", "cleared rule={}", rule.name);
                }
            }
        }
        prev.at = now;
        prev.counters = counters;
        prev.gauges = gauges;
        prev.hists = hists;
        prev.evaluations += 1;
    }
}

/// A running evaluation thread; stop + join on shutdown.
#[derive(Debug)]
pub struct SamplerHandle {
    /// Hanging up wakes the thread, which then ends.
    stop: Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl SamplerHandle {
    /// Stop after the evaluation in flight and wait for the thread.
    pub fn join(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Spawn the background thread: one [`AlertState::evaluate`] every
/// `interval`, at the instant it wakes, until stopped. It waits on the
/// handle's channel, so shutdown is prompt even with long intervals.
pub fn spawn_sampler(alerts: Arc<AlertState>, interval: Duration) -> SamplerHandle {
    let (stop, stopped) = std::sync::mpsc::channel();
    let thread = std::thread::Builder::new()
        .name("bgp-obs-sampler".to_string())
        .spawn(move || {
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                alerts.evaluate(Instant::now());
            }
        })
        .expect("spawn obs sampler");
    SamplerHandle { stop, thread }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A state over `spec` whose first window opens at `t0`.
    fn state(obs: &Arc<ObsRegistry>, spec: &str, t0: Instant) -> AlertState {
        AlertState::new(parse_alert_rules(spec).unwrap(), Arc::clone(obs), t0)
    }

    /// `n` one-second windows after `t0`.
    fn secs(t0: Instant, n: u64) -> Instant {
        t0 + Duration::from_secs(n)
    }

    #[test]
    fn parse_rules_aliases_durations_and_errors() {
        let rules =
            parse_alert_rules("seal_p99>50ms@3;archive_sink_queue>64@5;quarantine_rate>0.05@10")
                .unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(
            rules[0].selector,
            MetricSelector::P99("bgp_stream_seal_duration_seconds".to_string())
        );
        assert_eq!(rules[0].threshold, 50e6);
        assert_eq!(rules[0].windows, 3);
        assert_eq!(
            rules[1].selector,
            MetricSelector::Value("bgp_archive_sink_queue_depth".to_string())
        );
        assert_eq!(rules[2].selector, MetricSelector::QuarantineRatio);
        assert_eq!(rules[2].threshold, 0.05);

        let generic = parse_alert_rules("my_total_rate>1.5@2;other_p50>2us@1").unwrap();
        assert_eq!(
            generic[0].selector,
            MetricSelector::Rate("my_total".to_string())
        );
        assert_eq!(
            generic[1].selector,
            MetricSelector::P50("other".to_string())
        );
        assert_eq!(generic[1].threshold, 2e3);

        assert!(parse_alert_rules("nope").is_err());
        assert!(parse_alert_rules("a>1").is_err());
        assert!(parse_alert_rules("a>x@2").is_err());
        assert!(parse_alert_rules("a>1@0").is_err());
        assert!(parse_alert_rules("").unwrap().is_empty());

        // A threshold `>` can never cross (or never be under) is refused,
        // however it is spelled, and the error names the rule.
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e400", "1e308s"] {
            let err = parse_alert_rules(&format!("ok>1@1;seal_p99>{bad}@1")).unwrap_err();
            assert!(err.contains("seal_p99") && err.contains(bad), "{err}");
        }
        assert_eq!(parse_alert_rules("a>-1.5@1").unwrap()[0].threshold, -1.5);
        // Two rules with one name would be one indistinguishable
        // `alert:a` in /healthz.
        let err = parse_alert_rules("a>1@1;b>1@1; a >2@3").unwrap_err();
        assert!(err.contains("\"a\"") && err.contains("already"), "{err}");
    }

    #[test]
    fn alerts_fire_after_n_windows_and_clear() {
        let obs = Arc::new(ObsRegistry::new());
        let g = obs.gauge("depth", "h", &[]);
        let c = obs.counter("x_total", "h", &[]);
        let t0 = Instant::now();
        let alerts = state(&obs, "depth>5@3;x_total_rate>0@1;x_total>39@1", t0);
        let firing_gauge = obs.gauge("bgp_alerts_firing", "", &[]);

        g.set(10);
        c.add(10);
        alerts.evaluate(secs(t0, 1));
        // The first window rates from zero; the total is still under 39.
        assert_eq!(alerts.firing(), ["x_total_rate"]);
        c.add(30);
        alerts.evaluate(secs(t0, 2));
        assert_eq!(alerts.firing(), ["x_total_rate", "x_total"]);
        assert_eq!(firing_gauge.get(), 2, "two windows is not three");
        // The counter stands still: its rate clears, its value does not.
        alerts.evaluate(secs(t0, 3));
        assert_eq!(alerts.firing(), ["depth", "x_total"]);
        assert_eq!(firing_gauge.get(), 2);
        assert_eq!(alerts.evaluations(), 3);

        // A single under-threshold window clears the alert and resets
        // the streak.
        g.set(0);
        alerts.evaluate(secs(t0, 4));
        assert_eq!(alerts.firing(), ["x_total"]);
        assert_eq!(firing_gauge.get(), 1);
        g.set(10);
        alerts.evaluate(secs(t0, 5));
        alerts.evaluate(secs(t0, 6));
        assert_eq!(alerts.firing(), ["x_total"], "streak restarted from zero");
        alerts.evaluate(secs(t0, 7));
        assert_eq!(alerts.firing(), ["depth", "x_total"]);
        assert_eq!(firing_gauge.get(), 2);
    }

    #[test]
    fn a_rate_is_the_move_over_the_given_window() {
        let obs = Arc::new(ObsRegistry::new());
        let c = obs.counter("x_total", "h", &[]);
        let t0 = Instant::now();
        let over = state(&obs, "x_total_rate>4.9@1", t0);
        let under = state(&obs, "x_total_rate>5.1@1", t0);
        for alerts in [&over, &under] {
            alerts.evaluate(secs(t0, 1));
        }
        for _ in 0..10 {
            c.inc();
        }
        // Ten increments over a two-second window: 5/s.
        for alerts in [&over, &under] {
            alerts.evaluate(secs(t0, 3));
        }
        assert_eq!(over.firing(), ["x_total_rate"]);
        assert!(under.firing().is_empty(), "5/s is not over 5.1/s");
        // Ten more over one second: 10/s.
        c.add(10);
        under.evaluate(secs(t0, 4));
        assert_eq!(under.firing(), ["x_total_rate"]);
    }

    #[test]
    fn a_p99_rule_clears_once_the_window_drains() {
        let obs = Arc::new(ObsRegistry::new());
        let h = obs.histogram("y_duration_seconds", "h", &[("kind", "a")]);
        let slow = obs.histogram("y_duration_seconds", "h", &[("kind", "b")]);
        let t0 = Instant::now();
        let alerts = state(
            &obs,
            "y_duration_seconds_p99>500us@1;y_duration_seconds_p50>500us@1;absent_p99>0@1",
            t0,
        );
        for _ in 0..100 {
            h.record(300);
        }
        alerts.evaluate(secs(t0, 1));
        assert!(alerts.firing().is_empty(), "a fast window is under 500 µs");
        // Second window: only slow observations — its quantiles must
        // reflect them, not the 100 fast ones already drained.
        for _ in 0..10 {
            slow.record(1_000_000);
        }
        alerts.evaluate(secs(t0, 2));
        assert_eq!(
            alerts.firing(),
            ["y_duration_seconds_p99", "y_duration_seconds_p50"]
        );
        // Third window: nothing observed, so no quantile at all — under
        // threshold, although the lifetime p99 is still 1 ms.
        alerts.evaluate(secs(t0, 3));
        assert!(alerts.firing().is_empty());
    }

    #[test]
    fn quarantine_ratio_selector() {
        let obs = Arc::new(ObsRegistry::new());
        let ingested = obs.counter("bgp_serve_events_ingested_total", "h", &[]);
        let quarantined = obs.counter("bgp_serve_quarantined_total", "h", &[]);
        let t0 = Instant::now();
        let alerts = state(&obs, "quarantine_rate>0.10@1", t0);

        ingested.add(99);
        quarantined.add(1);
        alerts.evaluate(secs(t0, 1));
        assert!(alerts.firing().is_empty(), "1% is under the 10% threshold");
        quarantined.add(20);
        alerts.evaluate(secs(t0, 2));
        assert_eq!(alerts.firing(), ["quarantine_rate"]);
        ingested.add(10_000);
        alerts.evaluate(secs(t0, 3));
        assert!(alerts.firing().is_empty(), "rate recovered");
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let obs = Arc::new(ObsRegistry::new());
        obs.counter("w_total", "h", &[]).inc();
        let alerts = Arc::new(state(&obs, "w_total>0@2", Instant::now()));
        let handle = spawn_sampler(Arc::clone(&alerts), Duration::from_millis(10));
        let deadline = Instant::now() + Duration::from_secs(5);
        while alerts.evaluations() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join();
        assert!(alerts.evaluations() >= 2, "evaluated while running");
        assert_eq!(alerts.firing(), ["w_total"]);
        let after = alerts.evaluations();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(alerts.evaluations(), after, "no evaluations after join");
    }
}
