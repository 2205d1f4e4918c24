//! Declarative metric-rule alerting.
//!
//! A [`Rule`] watches the metrics registry and fires when its condition
//! holds: a [`RuleKind::Threshold`] on a counter/gauge, a
//! [`RuleKind::Ratio`] of two counters, a [`RuleKind::BurnRate`]
//! (per-second increase of a counter over a sliding window), or a
//! [`RuleKind::Quantile`] over a histogram's `le` buckets (via the shared
//! estimator in [`crate::metrics::quantile_from_buckets`]).
//!
//! Each rule runs a small hysteresis state machine ([`Phase`]):
//!
//! ```text
//!        cond for `for_ns`            cond false and
//!  Ok ────────────────────▶ Firing ── `cooldown_ns` since fired ──▶ Ok
//!   ▲ └─▶ Pending ─┘                                                │
//!   └────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Once fired, a rule stays fired for at least its cooldown — it can
//! never flap back to Ok earlier (the `proptest_alerts` integration test
//! proves this over arbitrary condition sequences), and re-firing
//! requires the condition to hold again for the full `for` duration.
//!
//! The global engine ([`install_builtin_rules`], [`evaluate_now`],
//! [`start_evaluator`]) evaluates in the background while a job runs,
//! surfaces state on the `/alerts` endpoint and `bpart obs alerts`, and
//! folds firing rules into the structured `/healthz` degraded state.
//! Built-in rules cover the incidents the distributed backend actually
//! produces: worker death, stragglers, checkpoint-replay storms, and
//! RPC tail latency.

use crate::metrics::{self, MetricView};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Comparison operator for rule conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Gt,
    Ge,
    Lt,
    Le,
}

impl Op {
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Op::Gt => lhs > rhs,
            Op::Ge => lhs >= rhs,
            Op::Lt => lhs < rhs,
            Op::Le => lhs <= rhs,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Lt => "<",
            Op::Le => "<=",
        }
    }
}

/// What a rule computes from the registry each evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleKind {
    /// Current value of a counter or gauge compared to a constant.
    Threshold { metric: String, op: Op, value: f64 },
    /// Ratio of two counters/gauges (`num / den`); a zero or missing
    /// denominator makes the condition false (no divide-by-zero alarms).
    Ratio {
        num: String,
        den: String,
        op: Op,
        value: f64,
    },
    /// Per-second increase of a counter over a sliding window.
    BurnRate {
        metric: String,
        window: Duration,
        op: Op,
        value: f64,
    },
    /// Quantile of a histogram estimated from its `le` buckets.
    Quantile {
        metric: String,
        q: f64,
        op: Op,
        value: f64,
    },
}

/// One declarative alert rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Stable name (shown on `/alerts` and in `/healthz` degraded state).
    pub name: String,
    pub kind: RuleKind,
    /// The condition must hold this long before the rule fires.
    pub for_duration: Duration,
    /// Once fired, the rule stays fired at least this long (hysteresis).
    pub cooldown: Duration,
}

/// Hysteresis phase of one rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Ok,
    Pending,
    Firing,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Ok => "ok",
            Phase::Pending => "pending",
            Phase::Firing => "firing",
        }
    }
}

/// Per-rule evaluator state: the hysteresis machine plus the burn-rate
/// sample window.
#[derive(Clone, Debug)]
struct RuleState {
    phase: Phase,
    pending_since_ns: u64,
    fired_at_ns: u64,
    /// `(now_ns, counter_value)` samples for burn-rate windows.
    window: VecDeque<(u64, f64)>,
}

impl RuleState {
    fn new() -> Self {
        RuleState {
            phase: Phase::Ok,
            pending_since_ns: 0,
            fired_at_ns: 0,
            window: VecDeque::new(),
        }
    }

    /// Advances the hysteresis machine one observation. `now_ns` must be
    /// monotone non-decreasing across calls (the tracer clock is).
    fn step(&mut self, condition: bool, now_ns: u64, rule: &Rule) {
        let for_ns = rule.for_duration.as_nanos() as u64;
        let cooldown_ns = rule.cooldown.as_nanos() as u64;
        match self.phase {
            Phase::Ok => {
                if condition {
                    self.pending_since_ns = now_ns;
                    self.phase = Phase::Pending;
                }
            }
            Phase::Pending => {
                if !condition {
                    self.phase = Phase::Ok;
                }
            }
            Phase::Firing => {
                // Hysteresis: leaving Firing requires the condition to be
                // clear *and* the cooldown to have fully elapsed.
                if !condition && now_ns.saturating_sub(self.fired_at_ns) >= cooldown_ns {
                    self.phase = Phase::Ok;
                }
            }
        }
        if self.phase == Phase::Pending
            && condition
            && now_ns.saturating_sub(self.pending_since_ns) >= for_ns
        {
            self.phase = Phase::Firing;
            self.fired_at_ns = now_ns;
        }
    }
}

/// A point-in-time view of the metrics registry, resolvable by name.
pub struct MetricValues {
    map: HashMap<String, MetricView>,
}

impl MetricValues {
    /// Captures every registered metric.
    pub fn capture() -> Self {
        let mut map = HashMap::new();
        metrics::visit_metrics(|name, view| {
            map.insert(name.to_string(), view);
        });
        MetricValues { map }
    }

    /// Builds a view from explicit values (tests, offline evaluation).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, MetricView)>) -> Self {
        MetricValues {
            map: pairs.into_iter().collect(),
        }
    }

    /// Scalar value of a counter or gauge, `None` when absent or a
    /// histogram (histograms are only addressable via `Quantile`).
    fn scalar(&self, name: &str) -> Option<f64> {
        match self.map.get(name)? {
            MetricView::Counter(v) => Some(*v as f64),
            MetricView::Gauge(v) => Some(*v),
            MetricView::Histogram { .. } => None,
        }
    }

    fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        match self.map.get(name)? {
            MetricView::Histogram {
                bounds, buckets, ..
            } => metrics::quantile_from_buckets(bounds, buckets, q),
            _ => None,
        }
    }
}

/// Snapshot of one rule's evaluation, as rendered on `/alerts`.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertStatus {
    pub name: String,
    pub phase: Phase,
    /// Most recent computed value (`None` when inputs were absent).
    pub value: Option<f64>,
    /// Human-readable condition, e.g. `dist.worker_deaths > 0`.
    pub condition: String,
    /// Nanoseconds (tracer clock) the rule last entered `Firing`; 0 if
    /// it never fired.
    pub fired_at_ns: u64,
}

/// A deterministic rule evaluator over explicit metric snapshots and
/// timestamps. The global engine wraps one of these; tests drive their
/// own instance directly.
pub struct AlertEngine {
    rules: Vec<(Rule, RuleState)>,
}

impl Default for AlertEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl AlertEngine {
    pub fn new() -> Self {
        AlertEngine { rules: Vec::new() }
    }

    /// Registers a rule; replaces any existing rule with the same name
    /// (state resets — a redefined rule starts from Ok).
    pub fn add_rule(&mut self, rule: Rule) {
        if let Some(slot) = self.rules.iter_mut().find(|(r, _)| r.name == rule.name) {
            *slot = (rule, RuleState::new());
        } else {
            self.rules.push((rule, RuleState::new()));
        }
    }

    pub fn has_rule(&self, name: &str) -> bool {
        self.rules.iter().any(|(r, _)| r.name == name)
    }

    /// Computes a rule's current value against a snapshot; burn rates
    /// also push into the rule's sliding window.
    fn observe(
        kind: &RuleKind,
        state: &mut RuleState,
        values: &MetricValues,
        now_ns: u64,
    ) -> Option<f64> {
        match kind {
            RuleKind::Threshold { metric, .. } => values.scalar(metric),
            RuleKind::Ratio { num, den, .. } => {
                let d = values.scalar(den)?;
                if d == 0.0 {
                    return None;
                }
                Some(values.scalar(num)? / d)
            }
            RuleKind::BurnRate { metric, window, .. } => {
                let v = values.scalar(metric)?;
                state.window.push_back((now_ns, v));
                let horizon = now_ns.saturating_sub(window.as_nanos() as u64);
                // Keep one sample at-or-before the horizon so the rate
                // spans the whole window.
                while state.window.len() > 2 && state.window[1].0 <= horizon {
                    state.window.pop_front();
                }
                let (t0, v0) = *state.window.front()?;
                let dt = now_ns.saturating_sub(t0);
                if dt == 0 {
                    return None;
                }
                Some((v - v0) / (dt as f64 / 1e9))
            }
            RuleKind::Quantile { metric, q, .. } => values.quantile(metric, *q),
        }
    }

    fn condition_string(kind: &RuleKind) -> String {
        match kind {
            RuleKind::Threshold { metric, op, value } => {
                format!("{metric} {} {value}", op.symbol())
            }
            RuleKind::Ratio {
                num,
                den,
                op,
                value,
            } => format!("{num}/{den} {} {value}", op.symbol()),
            RuleKind::BurnRate {
                metric,
                window,
                op,
                value,
            } => format!(
                "rate({metric}[{}s]) {} {value}/s",
                window.as_secs(),
                op.symbol()
            ),
            RuleKind::Quantile {
                metric,
                q,
                op,
                value,
            } => format!("quantile({metric}, {q}) {} {value}", op.symbol()),
        }
    }

    /// Evaluates every rule against `values` at `now_ns` and returns the
    /// resulting statuses.
    pub fn step(&mut self, values: &MetricValues, now_ns: u64) -> Vec<AlertStatus> {
        let mut out = Vec::with_capacity(self.rules.len());
        for (rule, state) in &mut self.rules {
            let observed = Self::observe(&rule.kind, state, values, now_ns);
            let (op, threshold) = match &rule.kind {
                RuleKind::Threshold { op, value, .. }
                | RuleKind::Ratio { op, value, .. }
                | RuleKind::BurnRate { op, value, .. }
                | RuleKind::Quantile { op, value, .. } => (*op, *value),
            };
            let condition = observed.is_some_and(|v| op.eval(v, threshold));
            state.step(condition, now_ns, rule);
            out.push(AlertStatus {
                name: rule.name.clone(),
                phase: state.phase,
                value: observed,
                condition: Self::condition_string(&rule.kind),
                fired_at_ns: state.fired_at_ns,
            });
        }
        out
    }

    /// Names of rules currently in [`Phase::Firing`].
    pub fn firing(&self) -> Vec<String> {
        self.rules
            .iter()
            .filter(|(_, s)| s.phase == Phase::Firing)
            .map(|(r, _)| r.name.clone())
            .collect()
    }

    /// Current statuses without re-evaluating (phases as of the last
    /// [`step`](Self::step)).
    pub fn statuses(&self) -> Vec<AlertStatus> {
        self.rules
            .iter()
            .map(|(rule, state)| AlertStatus {
                name: rule.name.clone(),
                phase: state.phase,
                value: None,
                condition: Self::condition_string(&rule.kind),
                fired_at_ns: state.fired_at_ns,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The process-global engine.

struct GlobalAlerts {
    engine: Mutex<AlertEngine>,
    /// Statuses from the most recent evaluation (what `/alerts` renders).
    last: Mutex<Vec<AlertStatus>>,
    evaluator: Mutex<Option<EvaluatorHandle>>,
}

struct EvaluatorHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<()>,
}

fn global() -> &'static GlobalAlerts {
    static STATE: OnceLock<GlobalAlerts> = OnceLock::new();
    STATE.get_or_init(|| GlobalAlerts {
        engine: Mutex::new(AlertEngine::new()),
        last: Mutex::new(Vec::new()),
        evaluator: Mutex::new(None),
    })
}

/// Registers (idempotently) the built-in SLO rules for the incidents the
/// distributed backend actually produces. Thresholds are deliberately
/// conservative: they flag real trouble, not noisy near-misses.
pub fn install_builtin_rules() {
    let mut engine = global().engine.lock().unwrap_or_else(|p| p.into_inner());
    let builtins = [
        // Any worker death is an incident worth surfacing immediately;
        // the long cooldown keeps one crash from flapping the state as
        // recovery bounces the counter's context.
        Rule {
            name: "worker-death".into(),
            kind: RuleKind::Threshold {
                metric: "dist.worker_deaths".into(),
                op: Op::Gt,
                value: 0.0,
            },
            for_duration: Duration::from_secs(0),
            cooldown: Duration::from_secs(60),
        },
        // Straggler factor (slowest/mean compute across workers, set by
        // the driver each superstep) — 3x is the paper's Fig. 13 regime
        // where one machine dominates the barrier wait.
        Rule {
            name: "straggler".into(),
            kind: RuleKind::Threshold {
                metric: "dist.straggler_factor".into(),
                op: Op::Ge,
                value: 3.0,
            },
            for_duration: Duration::from_millis(500),
            cooldown: Duration::from_secs(30),
        },
        // Replay storm: supersteps being replayed faster than one every
        // two seconds sustained means recovery is thrashing.
        Rule {
            name: "replay-storm".into(),
            kind: RuleKind::BurnRate {
                metric: "dist.replayed_supersteps".into(),
                window: Duration::from_secs(10),
                op: Op::Gt,
                value: 0.5,
            },
            for_duration: Duration::from_secs(1),
            cooldown: Duration::from_secs(60),
        },
        // Driver-worker RPC tail latency from the federation RTT series
        // (shared quantile estimator over the `le` buckets).
        Rule {
            name: "rpc-rtt-p99".into(),
            kind: RuleKind::Quantile {
                metric: "dist.rpc_rtt_ns".into(),
                q: 0.99,
                op: Op::Gt,
                value: 5e9,
            },
            for_duration: Duration::from_secs(1),
            cooldown: Duration::from_secs(60),
        },
    ];
    for rule in builtins {
        if !engine.has_rule(&rule.name) {
            engine.add_rule(rule);
        }
    }
}

/// Adds (or replaces) a rule on the global engine.
pub fn add_rule(rule: Rule) {
    global()
        .engine
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .add_rule(rule);
}

/// Evaluates the global engine against the live registry now; returns
/// the fresh statuses (also retained for [`alerts_json`]).
pub fn evaluate_now() -> Vec<AlertStatus> {
    let values = MetricValues::capture();
    let now = crate::tracer::now_ns();
    let statuses = global()
        .engine
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .step(&values, now);
    *global().last.lock().unwrap_or_else(|p| p.into_inner()) = statuses.clone();
    statuses
}

/// Names of currently-firing rules (from the most recent evaluation).
pub fn firing() -> Vec<String> {
    global()
        .engine
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .firing()
}

/// Renders the most recent evaluation as a JSON array (the `/alerts`
/// body). Call [`evaluate_now`] first for a fresh view.
pub fn alerts_json() -> String {
    let last = global().last.lock().unwrap_or_else(|p| p.into_inner());
    let mut out = String::from("[");
    for (i, s) in last.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{:?},\"phase\":\"{}\",\"condition\":{:?},\"value\":{},\"fired_at_ns\":{}}}",
            s.name,
            s.phase.as_str(),
            s.condition,
            s.value.map_or("null".to_string(), crate::metrics::json_f64),
            s.fired_at_ns
        ));
    }
    out.push_str("]\n");
    out
}

/// Starts the background evaluator at `interval` (idempotent: `false` if
/// already running).
pub fn start_evaluator(interval: Duration) -> bool {
    let mut slot = global().evaluator.lock().unwrap_or_else(|p| p.into_inner());
    if slot.is_some() {
        return false;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("bpart-alerts".into())
        .spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                evaluate_now();
                std::thread::sleep(interval);
            }
        })
        .expect("spawn alert evaluator");
    *slot = Some(EvaluatorHandle { stop, join });
    true
}

/// Stops the background evaluator (no-op when none is running).
pub fn stop_evaluator() {
    let handle = global()
        .evaluator
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take();
    if let Some(handle) = handle {
        handle.stop.store(true, Ordering::Relaxed);
        let _ = handle.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold_rule(for_ms: u64, cooldown_ms: u64) -> Rule {
        Rule {
            name: "t".into(),
            kind: RuleKind::Threshold {
                metric: "x".into(),
                op: Op::Gt,
                value: 10.0,
            },
            for_duration: Duration::from_millis(for_ms),
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    fn values(v: f64) -> MetricValues {
        MetricValues::from_pairs([("x".to_string(), MetricView::Gauge(v))])
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn threshold_fires_after_for_duration_and_holds_through_cooldown() {
        let mut e = AlertEngine::new();
        e.add_rule(threshold_rule(10, 100));
        // Below threshold: Ok.
        assert_eq!(e.step(&values(5.0), 0)[0].phase, Phase::Ok);
        // Above: Pending until `for` elapses.
        assert_eq!(e.step(&values(20.0), MS)[0].phase, Phase::Pending);
        assert_eq!(e.step(&values(20.0), 5 * MS)[0].phase, Phase::Pending);
        assert_eq!(e.step(&values(20.0), 11 * MS)[0].phase, Phase::Firing);
        // Condition clears, but the cooldown pins the phase...
        assert_eq!(e.step(&values(5.0), 50 * MS)[0].phase, Phase::Firing);
        assert_eq!(e.step(&values(5.0), 110 * MS)[0].phase, Phase::Firing);
        // ...until 100ms after fired_at (11ms): clear from 111ms on.
        assert_eq!(e.step(&values(5.0), 112 * MS)[0].phase, Phase::Ok);
    }

    #[test]
    fn pending_resets_when_condition_clears_early() {
        let mut e = AlertEngine::new();
        e.add_rule(threshold_rule(10, 100));
        assert_eq!(e.step(&values(20.0), 0)[0].phase, Phase::Pending);
        assert_eq!(e.step(&values(5.0), 5 * MS)[0].phase, Phase::Ok);
        // A new excursion restarts the clock: 9ms in, still pending.
        assert_eq!(e.step(&values(20.0), 6 * MS)[0].phase, Phase::Pending);
        assert_eq!(e.step(&values(20.0), 15 * MS)[0].phase, Phase::Pending);
        assert_eq!(e.step(&values(20.0), 16 * MS)[0].phase, Phase::Firing);
    }

    #[test]
    fn zero_for_duration_fires_in_one_step() {
        let mut e = AlertEngine::new();
        e.add_rule(threshold_rule(0, 100));
        assert_eq!(e.step(&values(20.0), 7 * MS)[0].phase, Phase::Firing);
        assert_eq!(e.firing(), vec!["t".to_string()]);
    }

    #[test]
    fn missing_metric_is_not_a_condition() {
        let mut e = AlertEngine::new();
        e.add_rule(threshold_rule(0, 0));
        let empty = MetricValues::from_pairs([]);
        let s = &e.step(&empty, 0)[0];
        assert_eq!(s.phase, Phase::Ok);
        assert_eq!(s.value, None);
    }

    #[test]
    fn ratio_rule_ignores_zero_denominator() {
        let mut e = AlertEngine::new();
        e.add_rule(Rule {
            name: "r".into(),
            kind: RuleKind::Ratio {
                num: "a".into(),
                den: "b".into(),
                op: Op::Gt,
                value: 0.5,
            },
            for_duration: Duration::ZERO,
            cooldown: Duration::ZERO,
        });
        let zero_den = MetricValues::from_pairs([
            ("a".to_string(), MetricView::Counter(5)),
            ("b".to_string(), MetricView::Counter(0)),
        ]);
        assert_eq!(e.step(&zero_den, 0)[0].phase, Phase::Ok);
        let hot = MetricValues::from_pairs([
            ("a".to_string(), MetricView::Counter(5)),
            ("b".to_string(), MetricView::Counter(4)),
        ]);
        let s = &e.step(&hot, MS)[0];
        assert_eq!(s.phase, Phase::Firing);
        assert_eq!(s.value, Some(1.25));
    }

    #[test]
    fn burn_rate_measures_increase_over_the_window() {
        let mut e = AlertEngine::new();
        e.add_rule(Rule {
            name: "b".into(),
            kind: RuleKind::BurnRate {
                metric: "c".into(),
                window: Duration::from_secs(10),
                op: Op::Gt,
                value: 1.0,
            },
            for_duration: Duration::ZERO,
            cooldown: Duration::ZERO,
        });
        let at = |v: u64| MetricValues::from_pairs([("c".to_string(), MetricView::Counter(v))]);
        let sec = 1_000_000_000u64;
        // First sample: no rate yet.
        assert_eq!(e.step(&at(0), 0)[0].value, None);
        // +2 over 1s = 2/s > 1/s: fires.
        let s = &e.step(&at(2), sec)[0];
        assert_eq!(s.value, Some(2.0));
        assert_eq!(s.phase, Phase::Firing);
        // Flat counter: the rate decays and the alert clears (zero
        // cooldown, so the clear is immediate once the condition drops).
        let s = &e.step(&at(2), 2 * sec)[0];
        assert_eq!(s.value, Some(1.0)); // 2 over 2s, no longer > 1/s
        assert_eq!(s.phase, Phase::Ok);
        let s = &e.step(&at(2), 3 * sec)[0];
        assert!(s.value.unwrap() < 1.0);
        assert_eq!(s.phase, Phase::Ok);
    }

    #[test]
    fn quantile_rule_reads_histogram_buckets() {
        let mut e = AlertEngine::new();
        e.add_rule(Rule {
            name: "q".into(),
            kind: RuleKind::Quantile {
                metric: "h".into(),
                q: 0.99,
                op: Op::Gt,
                value: 100.0,
            },
            for_duration: Duration::ZERO,
            cooldown: Duration::ZERO,
        });
        // 90 fast observations (≤10), 10 slow (≤1000): p99 lands deep in
        // the slow bucket, over the 100 threshold.
        let v = MetricValues::from_pairs([(
            "h".to_string(),
            MetricView::Histogram {
                bounds: vec![10.0, 1000.0],
                buckets: vec![90, 10, 0],
                count: 100,
                sum: 0.0,
            },
        )]);
        let s = &e.step(&v, 0)[0];
        assert_eq!(s.phase, Phase::Firing);
        assert!(s.value.unwrap() > 100.0, "p99 {:?}", s.value);
    }

    #[test]
    fn builtin_rules_install_idempotently() {
        install_builtin_rules();
        install_builtin_rules();
        let engine = global().engine.lock().unwrap_or_else(|p| p.into_inner());
        for name in ["worker-death", "straggler", "replay-storm", "rpc-rtt-p99"] {
            assert!(engine.has_rule(name), "missing builtin {name}");
        }
        assert_eq!(
            engine
                .rules
                .iter()
                .filter(|(r, _)| r.name == "worker-death")
                .count(),
            1
        );
    }

    #[test]
    fn alerts_json_renders_the_last_evaluation() {
        // Use the global engine but a rule whose metric never exists, so
        // parallel tests can't perturb the phase.
        add_rule(Rule {
            name: "json-probe".into(),
            kind: RuleKind::Threshold {
                metric: "alerts.test.never_registered".into(),
                op: Op::Gt,
                value: 1.0,
            },
            for_duration: Duration::ZERO,
            cooldown: Duration::ZERO,
        });
        evaluate_now();
        let json = alerts_json();
        assert!(json.contains("\"json-probe\""), "{json}");
        assert!(json.contains("\"phase\":\"ok\""), "{json}");
        assert!(json.contains("alerts.test.never_registered"), "{json}");
    }
}
