//! Deterministic fault injection for the Sato serving stack.
//!
//! Production crates declare *named injection points* — `serve.round`,
//! `core.artifact_load`, `tabular.colstore_decode`, … — behind their own
//! `faults` cargo feature, so the sites compile to nothing in ordinary
//! builds. With the feature on, a test (such as the `chaos_serving`
//! integration suite) arms a site with a [`FaultSpec`] and the next
//! matching execution deterministically panics, returns an injected error,
//! or stalls.
//!
//! The registry is process-global and intentionally tiny: chaos tests that
//! share a binary serialize themselves (see the integration suite) and use
//! [`scoped`] so every test starts and ends with a clean slate.
//!
//! # Cookbook
//!
//! ```
//! use sato_faults::{self as faults, FaultSpec};
//! use std::time::Duration;
//!
//! let _guard = faults::scoped(); // clean registry now and on drop
//!
//! // Panic the third round formed by the batcher:
//! faults::set("serve.round_formation", FaultSpec::panic().nth(3));
//! // Fail the first two artifact loads with a transient I/O error:
//! faults::set("core.artifact_load", FaultSpec::error().times(2));
//! // Stall every other serving round by half a millisecond:
//! faults::set("serve.round", FaultSpec::delay(Duration::from_micros(500)).every(2));
//! // Poison exactly the table whose id is 7, every time it is featurized:
//! faults::set("core.feature_extract", FaultSpec::panic().with_key(7));
//! ```
//!
//! Injection points without an error channel (e.g. feature extraction deep
//! inside a prediction) escalate an armed `Error` action to a panic via
//! [`fire_panic`]; the serving layer is expected to contain it.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What happens when an armed injection point fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a payload starting with `"injected fault:"`.
    Panic,
    /// Ask the call site to surface its crate-native injected error.
    Error,
    /// Sleep for the given duration, then continue normally.
    Delay(Duration),
}

/// When an armed injection point fires, relative to the hits that match
/// its key filter (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every matching hit.
    Always,
    /// Fire only on the `n`-th matching hit.
    Nth(u64),
    /// Fire on every `n`-th matching hit (the `n`-th, `2n`-th, …).
    EveryNth(u64),
    /// Fire on the first `n` matching hits, then go quiet.
    Times(u64),
}

/// A fault armed at one injection point: an action, an optional key filter
/// and a firing schedule. Built with [`FaultSpec::panic`],
/// [`FaultSpec::error`] or [`FaultSpec::delay`] plus the builder methods.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    action: FaultAction,
    key: Option<u64>,
    trigger: Trigger,
}

impl FaultSpec {
    fn new(action: FaultAction) -> Self {
        FaultSpec {
            action,
            key: None,
            trigger: Trigger::Always,
        }
    }

    /// A fault that panics the call site.
    pub fn panic() -> Self {
        Self::new(FaultAction::Panic)
    }

    /// A fault that makes the call site return its injected error.
    pub fn error() -> Self {
        Self::new(FaultAction::Error)
    }

    /// A fault that stalls the call site for `d`, then continues.
    pub fn delay(d: Duration) -> Self {
        Self::new(FaultAction::Delay(d))
    }

    /// Only hits whose key equals `key` match (sites pass a natural key:
    /// table id, frame index, queue length …). Default: every key matches.
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Fire exactly once (shorthand for [`times(1)`](Self::times)).
    pub fn once(self) -> Self {
        self.times(1)
    }

    /// Fire only on the `n`-th matching hit (1-based).
    pub fn nth(mut self, n: u64) -> Self {
        self.trigger = Trigger::Nth(n);
        self
    }

    /// Fire on every `n`-th matching hit.
    pub fn every(mut self, n: u64) -> Self {
        self.trigger = Trigger::EveryNth(n);
        self
    }

    /// Fire on the first `n` matching hits, then go quiet.
    pub fn times(mut self, n: u64) -> Self {
        self.trigger = Trigger::Times(n);
        self
    }
}

#[derive(Default)]
struct SiteState {
    /// Executions of the site, armed or not.
    hits: u64,
    /// Hits that matched the armed spec's key filter.
    matched: u64,
    /// Hits on which the armed action actually ran.
    fired: u64,
    plan: Option<FaultSpec>,
}

fn registry() -> MutexGuard<'static, HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        // A panic *while armed* is this crate's normal mode of operation,
        // so the registry must shrug off poisoning.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Arm `site` with `spec`, replacing any previous plan and resetting the
/// site's counters.
pub fn set(site: &str, spec: FaultSpec) {
    let mut reg = registry();
    let state = reg.entry(site.to_string()).or_default();
    *state = SiteState {
        plan: Some(spec),
        ..SiteState::default()
    };
}

/// Disarm `site` (its counters keep counting executions).
pub fn clear(site: &str) {
    if let Some(state) = registry().get_mut(site) {
        state.plan = None;
    }
}

/// Disarm every site and zero all counters.
pub fn reset() {
    registry().clear();
}

/// Executions of `site` since the last [`reset`]/[`set`] touching it.
pub fn hits(site: &str) -> u64 {
    registry().get(site).map_or(0, |s| s.hits)
}

/// Times the armed action at `site` actually ran since it was [`set`].
pub fn fired(site: &str) -> u64 {
    registry().get(site).map_or(0, |s| s.fired)
}

/// RAII guard returned by [`scoped`]: the registry is cleared again when
/// it drops, so one test's faults never leak into the next.
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        reset();
    }
}

/// Reset the registry now and return a guard that resets it again on drop.
/// Take one at the top of every chaos test.
#[must_use = "the registry is re-armed for the next test only while the guard lives"]
pub fn scoped() -> FaultGuard {
    reset();
    FaultGuard(())
}

/// Evaluate the injection point `site` for one execution identified by
/// `key`. Called by the production crates at each `#[cfg(feature =
/// "faults")]` site; not normally called by tests.
///
/// Returns `true` when the caller must surface its injected error. A
/// `Panic` action panics here (payload `"injected fault: <site>"`); a
/// `Delay` sleeps (with the registry lock released) and returns `false`.
pub fn fire(site: &str, key: u64) -> bool {
    let action = {
        let mut reg = registry();
        // Allocate the key only on a site's first hit, so a warm
        // instrumented path stays allocation-free.
        if !reg.contains_key(site) {
            reg.insert(site.to_string(), SiteState::default());
        }
        let state = reg.get_mut(site).expect("site inserted above");
        state.hits += 1;
        let Some(plan) = &state.plan else {
            return false;
        };
        if plan.key.is_some_and(|k| k != key) {
            return false;
        }
        state.matched += 1;
        let fires = match plan.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => state.matched == n,
            Trigger::EveryNth(n) => n > 0 && state.matched % n == 0,
            Trigger::Times(n) => state.matched <= n,
        };
        if !fires {
            return false;
        }
        state.fired += 1;
        plan.action.clone()
    };
    match action {
        FaultAction::Panic => panic!("injected fault: {site}"),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            false
        }
        FaultAction::Error => true,
    }
}

/// Like [`fire`], for sites with no error channel: an armed `Error` action
/// escalates to a panic instead of being silently dropped.
pub fn fire_panic(site: &str, key: u64) {
    if fire(site, key) {
        panic!("injected fault: {site}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global, so the unit tests serialize on one
    /// mutex (the test harness runs them concurrently otherwise).
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_sites_count_hits_and_never_fire() {
        let _s = serial();
        let _g = scoped();
        assert!(!fire("t.unarmed", 0));
        assert!(!fire("t.unarmed", 7));
        assert_eq!(hits("t.unarmed"), 2);
        assert_eq!(fired("t.unarmed"), 0);
    }

    #[test]
    fn error_action_fires_by_trigger_schedule() {
        let _s = serial();
        let _g = scoped();
        set("t.err", FaultSpec::error().nth(2));
        assert!(!fire("t.err", 0));
        assert!(fire("t.err", 0));
        assert!(!fire("t.err", 0));
        assert_eq!(fired("t.err"), 1);

        set("t.err", FaultSpec::error().times(2));
        assert!(fire("t.err", 0));
        assert!(fire("t.err", 0));
        assert!(!fire("t.err", 0));
        assert_eq!(fired("t.err"), 2);

        set("t.err", FaultSpec::error().every(2));
        assert!(!fire("t.err", 0));
        assert!(fire("t.err", 0));
        assert!(!fire("t.err", 0));
        assert!(fire("t.err", 0));
        assert_eq!(fired("t.err"), 2);
    }

    #[test]
    fn key_filter_only_matches_its_key() {
        let _s = serial();
        let _g = scoped();
        set("t.key", FaultSpec::error().with_key(7).once());
        assert!(!fire("t.key", 1));
        assert!(!fire("t.key", 2));
        assert!(fire("t.key", 7));
        // `once` is exhausted even for the armed key.
        assert!(!fire("t.key", 7));
        assert_eq!(hits("t.key"), 4);
        assert_eq!(fired("t.key"), 1);
    }

    #[test]
    fn panic_action_panics_with_site_payload() {
        let _s = serial();
        let _g = scoped();
        set("t.panic", FaultSpec::panic().once());
        let err = std::panic::catch_unwind(|| fire("t.panic", 0)).unwrap_err();
        let payload = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(payload, "injected fault: t.panic");
        // Exhausted: the site is quiet afterwards, and the registry
        // recovered from the poisoned-while-panicking lock.
        assert!(!fire("t.panic", 0));
    }

    #[test]
    fn delay_action_stalls_then_continues() {
        let _s = serial();
        let _g = scoped();
        set("t.delay", FaultSpec::delay(Duration::from_millis(5)).once());
        let start = std::time::Instant::now();
        assert!(!fire("t.delay", 0));
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(fired("t.delay"), 1);
    }

    #[test]
    fn clear_disarms_and_scoped_resets() {
        let _s = serial();
        {
            let _g = scoped();
            set("t.clear", FaultSpec::error());
            assert!(fire("t.clear", 0));
            clear("t.clear");
            assert!(!fire("t.clear", 0));
            assert_eq!(hits("t.clear"), 2);
        }
        // The guard dropped: everything is gone.
        assert_eq!(hits("t.clear"), 0);
    }
}
