//! The materialized workload program: [`WorkloadTrace`].
//!
//! A trace is a sorted list of arrive/depart events on the **global
//! interval clock** — the count of RM intervals completed across all
//! cores. That clock is deterministic (it does not depend on wall-clock
//! time, settings or thread scheduling), advances even while individual
//! cores sit vacant, and is exactly the event stream the simulator already
//! processes, so replay is bit-reproducible by construction.
//!
//! Semantics:
//!
//! * an **arrival** on a vacant core starts the named application at
//!   `phase_offset` within its phase sequence;
//! * an arrival on an **occupied** core is a churn replacement: the old
//!   application departs and the new one cold-starts at its offset;
//! * a **departure** vacates the core; vacant cores complete no intervals
//!   and burn idle power until the next arrival;
//! * a trace with `horizon: Some(h)` runs until `h` global intervals have
//!   completed; `horizon: None` is reserved for purely static traces (one
//!   arrival per core at `t = 0`), which run to the per-application
//!   instruction target exactly like the pre-subsystem simulator.
//!
//! The canonical JSON form (`triad-workload/v1`) is byte-stable, and
//! [`WorkloadTrace::fingerprint`] hashes it through `triad_util::hash` so
//! campaign rows can record which workload produced them.

use triad_util::hash::Fingerprint;
use triad_util::json::Json;

/// Schema identifier of the canonical JSON form.
pub const TRACE_SCHEMA: &str = "triad-workload/v1";

/// What happens at a trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Start (or churn-replace with) an application on the core.
    Arrive {
        /// Suite application name.
        app: String,
        /// Starting position within the application's phase sequence
        /// (jittered phase profile; `0` = a cold start from the beginning).
        phase_offset: usize,
    },
    /// Vacate the core.
    Depart,
}

/// One scheduled workload event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global interval count at which the event fires (`0` = before the
    /// first simulated interval).
    pub at: u64,
    /// Target core.
    pub core: usize,
    /// Arrival or departure.
    pub kind: EventKind,
}

/// A materialized, replayable workload program.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// System width the trace schedules onto.
    pub n_cores: usize,
    /// Run length in global completed intervals; `None` = static trace
    /// running to the per-application instruction target.
    pub horizon: Option<u64>,
    /// Events sorted by `(at, core)`.
    pub events: Vec<TraceEvent>,
}

impl WorkloadTrace {
    /// The static trace equivalent to a plain app list: one arrival per
    /// core at `t = 0`, offset 0, no horizon.
    pub fn steady<S: AsRef<str>>(apps: &[S]) -> WorkloadTrace {
        WorkloadTrace {
            n_cores: apps.len(),
            horizon: None,
            events: apps
                .iter()
                .enumerate()
                .map(|(core, app)| TraceEvent {
                    at: 0,
                    core,
                    kind: EventKind::Arrive { app: app.as_ref().to_string(), phase_offset: 0 },
                })
                .collect(),
        }
    }

    /// If the trace is purely static (one offset-0 arrival per core at
    /// `t = 0`, no horizon), the per-core application names.
    pub fn static_names(&self) -> Option<Vec<&str>> {
        if self.horizon.is_some() || self.events.len() != self.n_cores {
            return None;
        }
        let mut names = vec![None; self.n_cores];
        for e in &self.events {
            match &e.kind {
                EventKind::Arrive { app, phase_offset: 0 } if e.at == 0 => {
                    names[e.core] = Some(app.as_str());
                }
                _ => return None,
            }
        }
        names.into_iter().collect()
    }

    /// Distinct applications the trace references, in suite order (the
    /// exact database a campaign over this trace needs).
    pub fn apps(&self) -> Vec<String> {
        triad_trace::suite()
            .iter()
            .filter(|a| {
                self.events.iter().any(
                    |e| matches!(&e.kind, EventKind::Arrive { app, .. } if app.as_str() == a.name),
                )
            })
            .map(|a| a.name.to_string())
            .collect()
    }

    /// Number of arrival events (initial assignments included).
    pub fn n_arrivals(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::Arrive { .. })).count()
    }

    /// Scheduled occupancy per application: for every arrival, the global
    /// intervals until the next event on that core (or the horizon). For
    /// static traces each assignment counts 1. Used to weight QoS
    /// evaluations by how much of the trace each application occupies.
    pub fn app_durations(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        let mut add = |app: &str, d: u64| match totals.iter_mut().find(|(a, _)| a == app) {
            Some((_, t)) => *t += d,
            None => totals.push((app.to_string(), d)),
        };
        for (i, e) in self.events.iter().enumerate() {
            let EventKind::Arrive { app, .. } = &e.kind else { continue };
            let duration = match self.horizon {
                None => 1,
                Some(h) => {
                    let end = self.events[i + 1..]
                        .iter()
                        .find(|n| n.core == e.core)
                        .map(|n| n.at)
                        .unwrap_or(h)
                        .min(h);
                    end.saturating_sub(e.at).max(1)
                }
            };
            add(app, duration);
        }
        totals
    }

    /// Structural validation: sorted events, known applications, coherent
    /// occupancy (no departures from vacant cores), and a horizon covering
    /// every event — or, for `horizon: None`, the static shape.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cores == 0 {
            return Err("trace needs at least one core".into());
        }
        if self.n_arrivals() == 0 {
            return Err("trace schedules no arrivals".into());
        }
        let mut occupied = vec![false; self.n_cores];
        let mut prev: Option<(u64, usize)> = None;
        for e in &self.events {
            if e.core >= self.n_cores {
                return Err(format!(
                    "event at {} targets core {} of {}",
                    e.at, e.core, self.n_cores
                ));
            }
            if let Some(p) = prev {
                if (e.at, e.core) < p {
                    return Err(format!("events not sorted by (at, core) at t={}", e.at));
                }
                if (e.at, e.core) == p {
                    return Err(format!("duplicate event slot (t={}, core {})", e.at, e.core));
                }
            }
            prev = Some((e.at, e.core));
            if let Some(h) = self.horizon {
                if e.at >= h {
                    return Err(format!("event at {} is beyond the horizon {h}", e.at));
                }
            }
            match &e.kind {
                EventKind::Arrive { app, phase_offset } => {
                    let Some(spec) = triad_trace::by_name(app) else {
                        return Err(format!("unknown application {app:?}"));
                    };
                    if *phase_offset >= spec.n_intervals() {
                        return Err(format!(
                            "phase offset {phase_offset} out of range for {app} \
                             ({} intervals)",
                            spec.n_intervals()
                        ));
                    }
                    occupied[e.core] = true;
                }
                EventKind::Depart => {
                    if !occupied[e.core] {
                        return Err(format!("departure from vacant core {} at {}", e.core, e.at));
                    }
                    occupied[e.core] = false;
                }
            }
        }
        if self.horizon.is_none() && self.static_names().is_none() {
            return Err(
                "dynamic traces (departures, churn, offsets or late arrivals) need a horizon"
                    .into(),
            );
        }
        Ok(())
    }

    /// Canonical JSON form (`triad-workload/v1`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", TRACE_SCHEMA)
            .set("n_cores", self.n_cores)
            .set(
                "horizon",
                match self.horizon {
                    Some(h) => Json::from(h),
                    None => Json::Null,
                },
            )
            .set(
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            let j = Json::obj().set("at", e.at).set("core", e.core);
                            match &e.kind {
                                EventKind::Arrive { app, phase_offset } => j
                                    .set("kind", "arrive")
                                    .set("app", app.clone())
                                    .set("phase_offset", *phase_offset),
                                EventKind::Depart => j.set("kind", "depart"),
                            }
                        })
                        .collect(),
                ),
            )
    }

    /// Content fingerprint of the canonical JSON bytes — the identity
    /// campaign rows record so archived results stay attributable to the
    /// exact workload program that produced them.
    pub fn fingerprint(&self) -> String {
        let mut f = Fingerprint::new(TRACE_SCHEMA);
        f.str(&self.to_json().to_string_compact());
        f.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churny() -> WorkloadTrace {
        WorkloadTrace {
            n_cores: 2,
            horizon: Some(20),
            events: vec![
                TraceEvent {
                    at: 0,
                    core: 0,
                    kind: EventKind::Arrive { app: "mcf".into(), phase_offset: 0 },
                },
                TraceEvent {
                    at: 0,
                    core: 1,
                    kind: EventKind::Arrive { app: "povray".into(), phase_offset: 0 },
                },
                TraceEvent { at: 6, core: 1, kind: EventKind::Depart },
                TraceEvent {
                    at: 10,
                    core: 1,
                    kind: EventKind::Arrive { app: "gcc".into(), phase_offset: 3 },
                },
            ],
        }
    }

    #[test]
    fn steady_round_trips_to_static_names() {
        let t = WorkloadTrace::steady(&["mcf", "povray"]);
        assert_eq!(t.static_names(), Some(vec!["mcf", "povray"]));
        assert!(t.validate().is_ok());
        assert_eq!(t.apps(), vec!["mcf".to_string(), "povray".to_string()]);
    }

    #[test]
    fn dynamic_traces_are_not_static() {
        let t = churny();
        assert!(t.validate().is_ok());
        assert_eq!(t.static_names(), None);
        assert_eq!(t.n_arrivals(), 3);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = churny();
        let mut b = churny();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.events[3].kind = EventKind::Arrive { app: "gcc".into(), phase_offset: 4 };
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn validation_rejects_incoherent_traces() {
        let mut t = churny();
        t.horizon = None;
        assert!(t.validate().is_err(), "dynamic traces need a horizon");

        let mut t = churny();
        t.events.remove(1);
        t.events[1] = TraceEvent { at: 6, core: 1, kind: EventKind::Depart };
        assert!(t.validate().is_err(), "departure from a vacant core");

        let mut t = churny();
        t.events[3].kind = EventKind::Arrive { app: "nope".into(), phase_offset: 0 };
        assert!(t.validate().is_err(), "unknown application");

        let mut t = churny();
        t.horizon = Some(5);
        assert!(t.validate().is_err(), "event beyond horizon");

        let mut t = churny();
        t.events.swap(2, 3);
        assert!(t.validate().is_err(), "unsorted events");
    }

    #[test]
    fn app_durations_reflect_occupancy() {
        let d = churny().app_durations();
        // mcf occupies core 0 for the whole 20-interval horizon; povray
        // 0..6 on core 1; gcc 10..20.
        assert_eq!(
            d,
            vec![("mcf".to_string(), 20), ("povray".to_string(), 6), ("gcc".to_string(), 10)]
        );
    }
}
