//! Declarative metric-rule alerting.
//!
//! A [`Rule`] watches a process's [`Metrics`] and fires when its
//! condition holds: a [`RuleKind::Threshold`] on a counter/gauge, a
//! [`RuleKind::BurnRate`] (per-second increase of a counter over a
//! sliding window), or a [`RuleKind::Quantile`] over a histogram's `le`
//! buckets (via the shared estimator in
//! [`crate::metrics::quantile_from_buckets`]).
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

use crate::snapshot::Metrics;
use crate::ticker::Ticker;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
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

/// What a rule computes from the metrics each evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleKind {
    /// Current value of a counter or gauge compared to a constant.
    Threshold { metric: String, op: Op, value: f64 },
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
        values: &Metrics,
        now_ns: u64,
    ) -> Option<f64> {
        match kind {
            RuleKind::Threshold { metric, .. } => values.scalar(metric),
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
    pub fn step(&mut self, values: &Metrics, now_ns: u64) -> Vec<AlertStatus> {
        let mut out = Vec::with_capacity(self.rules.len());
        for (rule, state) in &mut self.rules {
            let observed = Self::observe(&rule.kind, state, values, now_ns);
            let (op, threshold) = match &rule.kind {
                RuleKind::Threshold { op, value, .. }
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
}

// ---------------------------------------------------------------------------
// The process-global engine.

struct GlobalAlerts {
    engine: Mutex<AlertEngine>,
    /// Statuses from the most recent evaluation (what `/alerts` renders).
    last: Mutex<Vec<AlertStatus>>,
    evaluator: Mutex<Option<Ticker>>,
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
/// the fresh statuses (also retained for [`last`]).
pub fn evaluate_now() -> Vec<AlertStatus> {
    let values = crate::metrics::capture();
    let now = crate::tracer::now_ns();
    let statuses = global()
        .engine
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .step(&values, now);
    *global().last.lock().unwrap_or_else(|p| p.into_inner()) = statuses.clone();
    statuses
}

/// Statuses from the most recent evaluation: the `alerts` of a
/// [`crate::snapshot::Snapshot`].
pub fn last() -> Vec<AlertStatus> {
    global()
        .last
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Renders statuses as a JSON array (the `/alerts` body).
pub fn render_json(statuses: &[AlertStatus]) -> String {
    let mut out = String::from("[");
    for (i, s) in statuses.iter().enumerate() {
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
    *slot = Some(Ticker::start("bpart-alerts", interval, || {
        evaluate_now();
    }));
    true
}

/// Stops the background evaluator (no-op when none is running).
pub fn stop_evaluator() {
    let evaluator = global()
        .evaluator
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take();
    drop(evaluator);
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

    fn values(v: f64) -> Metrics {
        let mut m = Metrics::default();
        m.gauges.insert("x".to_string(), v);
        m
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
        let s = &e.step(&Metrics::default(), 0)[0];
        assert_eq!(s.phase, Phase::Ok);
        assert_eq!(s.value, None);
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
        let at = |v: u64| {
            let mut m = Metrics::default();
            m.counters.insert("c".to_string(), v);
            m
        };
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
        let mut v = Metrics::default();
        v.histograms.insert(
            "h".to_string(),
            crate::snapshot::HistogramValue {
                bounds: vec![10.0, 1000.0],
                buckets: vec![90, 10, 0],
                count: 100,
                sum: 0.0,
            },
        );
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
        let json = render_json(&last());
        assert!(json.contains("\"json-probe\""), "{json}");
        assert!(json.contains("\"phase\":\"ok\""), "{json}");
        assert!(json.contains("alerts.test.never_registered"), "{json}");
    }
}
