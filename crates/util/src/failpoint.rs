//! Deterministic fault injection at named sites (std-only `fail` stand-in).
//!
//! Long campaigns must survive torn writes, vanished files and poisoned
//! specs; proving that requires *injecting* those faults reproducibly. A
//! [`FailPoint`] is a named site compiled into a real IO or compute seam
//! (store persist, journal append, workload materialization, per-row
//! simulation). By default every site is **inert**: [`FailPoint::fire`]
//! is one relaxed atomic load plus a predictable branch — the same
//! discipline as `triad-telemetry`, and gated the same way (≤1% of the
//! `db_build`/`rm_overhead` hot loops) so sites can sit on warm paths.
//!
//! Sites are armed either programmatically ([`configure`]) or through the
//! `TRIAD_FAILPOINTS` environment variable (read once, by an explicit
//! [`init_from_env`] call from the binary's entry point — libraries never
//! consult the environment behind a caller's back):
//!
//! ```text
//! TRIAD_FAILPOINTS="db_store.persist.write=every(2);campaign.row=once:panic"
//! ```
//!
//! Each clause is `site=trigger[:action]`:
//!
//! * triggers — `always`, `once`, `every(N)` (the Nth, 2Nth, … hits),
//!   `prob(P)` / `prob(P,SEED)` (independent draws from a per-site
//!   xoshiro256++ stream seeded with `SEED`, default 0 — the same
//!   deterministic PRNG the trace generators use, so a fault schedule
//!   replays exactly);
//! * actions — `error` (default: the site reports an injected failure
//!   through its normal error path), `panic` (the site panics, exercising
//!   the campaign's `catch_unwind` quarantine), `abort` (the whole
//!   process dies on the spot — a deterministic `kill -9` for
//!   crash-recovery tests).
//!
//! Armed-path bookkeeping lives behind one global mutex: fault injection
//! is a test/debug regime, so contention there is irrelevant; only the
//! inert path is performance-critical.

use crate::rand::{rngs::StdRng, RandomValue, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What an armed site injects when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Report an injected failure through the site's error path.
    Error,
    /// Panic at the site (quarantine-path testing).
    Panic,
    /// Abort the process immediately (crash-recovery testing).
    Abort,
}

/// When an armed site injects its fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// The first hit only.
    Once,
    /// Hits `n`, `2n`, `3n`, … (1-based).
    EveryNth(u64),
    /// Each hit independently with probability `p`, drawn from a per-site
    /// deterministic stream seeded with `seed`.
    Prob { p: f64, seed: u64 },
}

struct Site {
    name: String,
    trigger: Trigger,
    kind: FaultKind,
    hits: u64,
    fired: u64,
    rng: StdRng,
}

impl Site {
    fn evaluate(&mut self) -> Option<FaultKind> {
        self.hits += 1;
        let fire = match self.trigger {
            Trigger::Always => true,
            Trigger::Once => self.hits == 1,
            Trigger::EveryNth(n) => self.hits.is_multiple_of(n.max(1)),
            Trigger::Prob { p, .. } => f64::from_rng(&mut self.rng) < p,
        };
        if fire {
            self.fired += 1;
            Some(self.kind)
        } else {
            None
        }
    }
}

/// Number of armed sites; the inert fast path is `ARMED == 0`.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static SITES: Mutex<Vec<Site>> = Mutex::new(Vec::new());

fn lock_sites() -> std::sync::MutexGuard<'static, Vec<Site>> {
    SITES.lock().unwrap_or_else(|e| e.into_inner())
}

/// A named fault-injection site. Declare as a `static` next to the seam
/// it guards; the name is the handle [`configure`] and `TRIAD_FAILPOINTS`
/// arm it by.
pub struct FailPoint {
    name: &'static str,
}

impl FailPoint {
    /// A site named `name` (dotted lowercase by convention, e.g.
    /// `"db_store.persist.rename"`).
    pub const fn new(name: &'static str) -> FailPoint {
        FailPoint { name }
    }

    /// The site's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Evaluate the site: `None` (by far the common case — one relaxed
    /// load and a branch when nothing is armed), or the fault to inject.
    ///
    /// `Abort` never returns: the process dies here, after an explanatory
    /// line on stderr, exactly as a `kill -9` would mid-operation.
    #[inline]
    pub fn fire(&self) -> Option<FaultKind> {
        if ARMED.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.fire_armed()
    }

    #[cold]
    fn fire_armed(&self) -> Option<FaultKind> {
        let kind = {
            let mut sites = lock_sites();
            let site = sites.iter_mut().find(|s| s.name == self.name)?;
            site.evaluate()?
        };
        if kind == FaultKind::Abort {
            eprintln!("failpoint {}: injected abort", self.name);
            std::process::abort();
        }
        Some(kind)
    }

    /// Evaluate the site against a `Result`-shaped seam: `Ok(())` when
    /// inert or the trigger does not fire, `Err` describing the injected
    /// fault for [`FaultKind::Error`], a panic for [`FaultKind::Panic`].
    #[inline]
    pub fn check(&self) -> Result<(), String> {
        match self.fire() {
            None => Ok(()),
            Some(FaultKind::Error) => Err(format!("failpoint {}: injected error", self.name)),
            Some(FaultKind::Panic | FaultKind::Abort) => {
                panic!("failpoint {}: injected panic", self.name)
            }
        }
    }

    /// [`FailPoint::check`] mapped onto `std::io::Error` for filesystem
    /// seams.
    #[inline]
    pub fn check_io(&self) -> std::io::Result<()> {
        self.check().map_err(std::io::Error::other)
    }
}

/// Arm `site` with an explicit trigger and action. Reconfiguring an
/// already-armed site replaces its trigger and resets its hit counters.
pub fn configure(site: &str, trigger: Trigger, kind: FaultKind) {
    let seed = match trigger {
        Trigger::Prob { seed, .. } => seed,
        _ => 0,
    };
    let mut sites = lock_sites();
    sites.retain(|s| s.name != site);
    sites.push(Site {
        name: site.to_string(),
        trigger,
        kind,
        hits: 0,
        fired: 0,
        rng: StdRng::seed_from_u64(seed),
    });
    ARMED.store(sites.len(), Ordering::Relaxed);
}

/// Disarm one site (no-op if it was not armed).
pub fn clear(site: &str) {
    let mut sites = lock_sites();
    sites.retain(|s| s.name != site);
    ARMED.store(sites.len(), Ordering::Relaxed);
}

/// Disarm every site. Tests that arm failpoints must call this on every
/// exit path (the registry is process-global).
pub fn clear_all() {
    let mut sites = lock_sites();
    sites.clear();
    ARMED.store(0, Ordering::Relaxed);
}

/// Number of times `site` has injected a fault so far.
pub fn fired(site: &str) -> u64 {
    lock_sites().iter().find(|s| s.name == site).map(|s| s.fired).unwrap_or(0)
}

/// Parse and arm a full `TRIAD_FAILPOINTS`-syntax configuration string:
/// semicolon-separated `site=trigger[:action]` clauses (see the module
/// docs). Empty clauses are ignored, so trailing semicolons are fine.
pub fn configure_str(config: &str) -> Result<(), String> {
    for clause in config.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (site, spec) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause {clause:?}: expected site=trigger"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("failpoint clause {clause:?}: empty site name"));
        }
        let (trigger_s, kind_s) = match spec.split_once(':') {
            Some((t, k)) => (t.trim(), Some(k.trim())),
            None => (spec.trim(), None),
        };
        let trigger = parse_trigger(trigger_s)
            .ok_or_else(|| format!("failpoint {site}: unknown trigger {trigger_s:?}"))?;
        let kind = match kind_s {
            None | Some("error") => FaultKind::Error,
            Some("panic") => FaultKind::Panic,
            Some("abort") => FaultKind::Abort,
            Some(other) => {
                return Err(format!(
                    "failpoint {site}: unknown action {other:?} (error, panic, abort)"
                ))
            }
        };
        configure(site, trigger, kind);
    }
    Ok(())
}

fn parse_trigger(s: &str) -> Option<Trigger> {
    if s == "always" {
        return Some(Trigger::Always);
    }
    if s == "once" {
        return Some(Trigger::Once);
    }
    if let Some(args) = s.strip_prefix("every(").and_then(|r| r.strip_suffix(')')) {
        let n: u64 = args.trim().parse().ok()?;
        if n == 0 {
            return None;
        }
        return Some(Trigger::EveryNth(n));
    }
    if let Some(args) = s.strip_prefix("prob(").and_then(|r| r.strip_suffix(')')) {
        let mut parts = args.splitn(2, ',');
        let p: f64 = parts.next()?.trim().parse().ok()?;
        if !(0.0..=1.0).contains(&p) {
            return None;
        }
        let seed: u64 = match parts.next() {
            Some(s) => s.trim().parse().ok()?,
            None => 0,
        };
        return Some(Trigger::Prob { p, seed });
    }
    None
}

/// Arm sites from the `TRIAD_FAILPOINTS` environment variable, if set.
/// Called once from binary entry points (`triad-bench`); libraries and
/// tests use [`configure`]/[`configure_str`] directly.
pub fn init_from_env() -> Result<(), String> {
    match std::env::var("TRIAD_FAILPOINTS") {
        Ok(v) if !v.trim().is_empty() => {
            configure_str(&v).map_err(|e| format!("TRIAD_FAILPOINTS: {e}"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; every test serializes on this.
    static GUARD: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        clear_all();
        g
    }

    static INERT: FailPoint = FailPoint::new("test.inert");
    static NTH: FailPoint = FailPoint::new("test.nth");
    static PROB: FailPoint = FailPoint::new("test.prob");
    static ONCE: FailPoint = FailPoint::new("test.once");

    #[test]
    fn inert_site_never_fires() {
        let _g = locked();
        for _ in 0..1000 {
            assert_eq!(INERT.fire(), None);
        }
        assert!(INERT.check().is_ok());
        assert_eq!(fired("test.inert"), 0);
    }

    #[test]
    fn unarmed_site_stays_inert_while_another_is_armed() {
        let _g = locked();
        configure("test.nth", Trigger::Always, FaultKind::Error);
        assert_eq!(INERT.fire(), None, "arming one site must not affect others");
        assert_eq!(NTH.fire(), Some(FaultKind::Error));
        clear_all();
    }

    #[test]
    fn every_nth_fires_deterministically() {
        let _g = locked();
        configure("test.nth", Trigger::EveryNth(3), FaultKind::Error);
        let pattern: Vec<bool> = (0..9).map(|_| NTH.fire().is_some()).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true],
            "every(3) fires on hits 3, 6, 9"
        );
        assert_eq!(fired("test.nth"), 3);
        clear_all();
    }

    #[test]
    fn once_fires_exactly_once() {
        let _g = locked();
        configure("test.once", Trigger::Once, FaultKind::Error);
        let fires: usize = (0..10).filter(|_| ONCE.fire().is_some()).count();
        assert_eq!(fires, 1);
        assert_eq!(fired("test.once"), 1);
        clear_all();
    }

    #[test]
    fn prob_schedule_replays_for_equal_seeds_and_differs_across_seeds() {
        let _g = locked();
        let draw = |seed: u64| -> Vec<bool> {
            configure("test.prob", Trigger::Prob { p: 0.5, seed }, FaultKind::Error);
            (0..64).map(|_| PROB.fire().is_some()).collect()
        };
        let a = draw(7);
        let b = draw(7);
        let c = draw(8);
        assert_eq!(a, b, "equal seeds must replay the same fault schedule");
        assert_ne!(a, c, "distinct seeds must explore distinct schedules");
        let hits = a.iter().filter(|&&f| f).count();
        assert!((8..=56).contains(&hits), "p=0.5 over 64 draws fired {hits} times");
        clear_all();
    }

    #[test]
    fn reconfigure_resets_counters() {
        let _g = locked();
        configure("test.nth", Trigger::EveryNth(2), FaultKind::Error);
        NTH.fire();
        NTH.fire();
        assert_eq!(fired("test.nth"), 1);
        configure("test.nth", Trigger::EveryNth(2), FaultKind::Error);
        assert_eq!(fired("test.nth"), 0, "reconfiguring restarts the schedule");
        assert_eq!(NTH.fire(), None, "hit 1 of the fresh schedule");
        clear_all();
    }

    #[test]
    fn check_maps_error_kind_to_err() {
        let _g = locked();
        configure("test.nth", Trigger::Always, FaultKind::Error);
        let e = NTH.check().unwrap_err();
        assert!(e.contains("test.nth"), "error names the site: {e}");
        let io = NTH.check_io().unwrap_err();
        assert!(io.to_string().contains("injected"), "{io}");
        clear_all();
    }

    #[test]
    #[should_panic(expected = "failpoint test.nth: injected panic")]
    fn check_panics_on_panic_kind() {
        // Deliberately does not hold the guard across the panic; arming is
        // atomic and `clear` in other tests tolerates concurrent arms.
        {
            let _g = locked();
        }
        configure("test.nth", Trigger::Always, FaultKind::Panic);
        let _ = NTH.check();
    }

    #[test]
    fn configure_str_parses_the_env_syntax() {
        let _g = locked();
        configure_str("test.nth = every(2) ; test.prob=prob(0.25, 9):panic; test.once=once:abort;")
            .unwrap();
        let sites = lock_sites();
        assert_eq!(sites.len(), 3);
        let by_name = |n: &str| sites.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("test.nth").trigger, Trigger::EveryNth(2));
        assert_eq!(by_name("test.nth").kind, FaultKind::Error);
        assert_eq!(by_name("test.prob").trigger, Trigger::Prob { p: 0.25, seed: 9 });
        assert_eq!(by_name("test.prob").kind, FaultKind::Panic);
        assert_eq!(by_name("test.once").trigger, Trigger::Once);
        assert_eq!(by_name("test.once").kind, FaultKind::Abort);
        drop(sites);
        clear_all();
    }

    #[test]
    fn configure_str_rejects_malformed_clauses() {
        let _g = locked();
        for bad in [
            "no-equals",
            "=every(2)",
            "s=every(0)",
            "s=every(x)",
            "s=prob(1.5)",
            "s=prob(0.5):explode",
            "s=sometimes",
        ] {
            assert!(configure_str(bad).is_err(), "{bad:?} must be rejected");
        }
        clear_all();
    }
}
