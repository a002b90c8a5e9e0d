//! The serializable workload-generator DSL: [`WorkloadSpec`].
//!
//! A spec is a pure description; [`WorkloadSpec::materialize`] expands it
//! into a [`WorkloadTrace`] deterministically from the spec's own seed (the
//! same spec always yields byte-identical trace JSON, on any thread). All
//! randomness goes through the deterministic `triad-util` xoshiro PRNG;
//! arrival processes use inverse-CDF exponential sampling.
//!
//! | kind     | program |
//! |----------|---------|
//! | `static` | an explicit app list frozen at `t = 0` |
//! | `steady` | one sampled §IV-C mix frozen at `t = 0` |
//! | `phased` | piecewise-constant category schedule: a fresh mix per stage |
//! | `bursty` | Poisson / two-state MMPP arrivals onto vacant cores with exponential service times |
//! | `churn`  | per-core app replacement mid-run (cold phase restart) |
//! | `scaled` | N× the 27-app Table II census with jittered phase positions, streamed across the cores |

use crate::scenario::{sample_mix, Scenario};
use crate::trace::{EventKind, TraceEvent, WorkloadTrace};
use triad_trace::{by_category, suite};
use triad_util::failpoint::FailPoint;
use triad_util::json::Json;
use triad_util::rand::rngs::StdRng;
use triad_util::rand::{RngExt, SeedableRng};

/// Injected-fault site at the top of [`WorkloadSpec::materialize`] —
/// exercises the campaign's workload-quarantine path without crafting an
/// actually-invalid spec.
pub static MATERIALIZE_FP: FailPoint = FailPoint::new("workload.materialize");

/// One stage of a phased workload: a §IV-C mix held for a fixed window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Scenario the stage's mix is sampled for (`None` = census-weighted).
    pub scenario: Option<Scenario>,
    /// Stage length in global intervals.
    pub intervals: u64,
}

/// An arrival process on the global interval clock.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential inter-arrival gaps with the given mean
    /// (global intervals).
    Poisson {
        /// Mean inter-arrival gap, global intervals.
        mean_gap: f64,
    },
    /// Two-state Markov-modulated Poisson process: state 0 (calm) and
    /// state 1 (burst) each have their own mean gap; the process dwells in
    /// a state for an exponential time before flipping.
    Mmpp {
        /// Mean inter-arrival gap per state, global intervals.
        mean_gap: [f64; 2],
        /// Mean dwell time per state, global intervals.
        mean_dwell: [f64; 2],
    },
}

/// Exponential sample with the given mean via inverse CDF.
fn exp_sample(mean: f64, rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random();
    -mean * (1.0 - u).ln()
}

/// A serializable description of a (possibly time-varying) workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// An explicit application list frozen at `t = 0` (the pre-subsystem
    /// `ExperimentSpec` form).
    Static {
        /// One application name per core.
        apps: Vec<String>,
    },
    /// One §IV-C mix sampled at `t = 0` and held for the whole run.
    Steady {
        /// System width (must be even, per §IV-C's two-half recipe).
        n_cores: usize,
        /// Scenario to sample for (`None` = census-weighted: empirical
        /// scenario frequencies converge on the 47/22.1/22.1/8.8 weights).
        scenario: Option<Scenario>,
        /// Generation seed.
        seed: u64,
    },
    /// Piecewise-constant category schedule: every stage churns all cores
    /// to a freshly sampled mix.
    Phased {
        /// System width (even).
        n_cores: usize,
        /// Generation seed.
        seed: u64,
        /// The stages, in order; the horizon is their total length.
        stages: Vec<Stage>,
    },
    /// Bursty arrivals onto vacant cores. Arrivals finding every core busy
    /// are lost (a loss system); service times are exponential.
    Bursty {
        /// System width.
        n_cores: usize,
        /// Generation seed.
        seed: u64,
        /// The arrival process.
        arrival: ArrivalProcess,
        /// Mean service length, core intervals (exponential, minimum 1).
        mean_service: u64,
        /// Run length, global intervals.
        horizon: u64,
        /// Category pool arrivals draw from (`None` = census-weighted).
        scenario: Option<Scenario>,
    },
    /// Per-core multiprogramming: each core independently replaces its
    /// application roughly every `period` global intervals (uniform jitter
    /// in `[period/2, 3·period/2]`), cold-restarting the phase position.
    Churn {
        /// System width.
        n_cores: usize,
        /// Generation seed.
        seed: u64,
        /// Mean replacement period, global intervals (≥ 2).
        period: u64,
        /// Run length, global intervals.
        horizon: u64,
        /// Category constraint for sampled apps (`None` = census).
        scenario: Option<Scenario>,
        /// Explicit app pool to draw from (overrides `scenario`; empty =
        /// the full 27-app census).
        pool: Vec<String>,
    },
    /// A scaled synthetic suite: `copies` × the 27-app Table II census,
    /// each instance with a jittered starting phase position, shuffled and
    /// streamed across the cores in fixed-length segments.
    Scaled {
        /// System width.
        n_cores: usize,
        /// Generation seed.
        seed: u64,
        /// Census multiplier `N` (the virtual suite has `27·N` instances).
        copies: usize,
        /// Per-instance segment length, global intervals.
        segment: u64,
    },
}

impl WorkloadSpec {
    /// Short kind label used in reports (`static`, `steady`, `phased`,
    /// `bursty`, `churn`, `scaled`).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadSpec::Static { .. } => "static",
            WorkloadSpec::Steady { .. } => "steady",
            WorkloadSpec::Phased { .. } => "phased",
            WorkloadSpec::Bursty { .. } => "bursty",
            WorkloadSpec::Churn { .. } => "churn",
            WorkloadSpec::Scaled { .. } => "scaled",
        }
    }

    /// System width the spec schedules onto.
    pub fn n_cores(&self) -> usize {
        match self {
            WorkloadSpec::Static { apps } => apps.len(),
            WorkloadSpec::Steady { n_cores, .. }
            | WorkloadSpec::Phased { n_cores, .. }
            | WorkloadSpec::Bursty { n_cores, .. }
            | WorkloadSpec::Churn { n_cores, .. }
            | WorkloadSpec::Scaled { n_cores, .. } => *n_cores,
        }
    }

    /// Expand the spec into its trace. Deterministic: the same spec always
    /// produces the same (validated) trace.
    pub fn materialize(&self) -> Result<WorkloadTrace, String> {
        MATERIALIZE_FP.check()?;
        let trace = match self {
            WorkloadSpec::Static { apps } => WorkloadTrace::steady(apps),
            WorkloadSpec::Steady { n_cores, scenario, seed } => {
                check_even(*n_cores)?;
                let mut rng = StdRng::seed_from_u64(*seed);
                let (apps, _) = sample_mix(*n_cores, *scenario, &mut rng);
                WorkloadTrace::steady(&apps)
            }
            WorkloadSpec::Phased { n_cores, seed, stages } => {
                check_even(*n_cores)?;
                if stages.is_empty() {
                    return Err("phased workload needs at least one stage".into());
                }
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut events = Vec::new();
                let mut t = 0u64;
                for stage in stages {
                    if stage.intervals == 0 {
                        return Err("phased stage length must be at least 1 interval".into());
                    }
                    let (apps, _) = sample_mix(*n_cores, stage.scenario, &mut rng);
                    for (core, app) in apps.iter().enumerate() {
                        events.push(TraceEvent {
                            at: t,
                            core,
                            kind: EventKind::Arrive { app: app.to_string(), phase_offset: 0 },
                        });
                    }
                    t += stage.intervals;
                }
                WorkloadTrace { n_cores: *n_cores, horizon: Some(t), events }
            }
            WorkloadSpec::Bursty { n_cores, seed, arrival, mean_service, horizon, scenario } => {
                materialize_bursty(*n_cores, *seed, arrival, *mean_service, *horizon, *scenario)?
            }
            WorkloadSpec::Churn { n_cores, seed, period, horizon, scenario, pool } => {
                materialize_churn(*n_cores, *seed, *period, *horizon, *scenario, pool)?
            }
            WorkloadSpec::Scaled { n_cores, seed, copies, segment } => {
                materialize_scaled(*n_cores, *seed, *copies, *segment)?
            }
        };
        trace
            .validate()
            .map_err(|e| format!("{} spec materialized an invalid trace: {e}", self.label()))?;
        Ok(trace)
    }

    /// Canonical JSON form (the `--workload <spec.json>` file format).
    pub fn to_json(&self) -> Json {
        let scenario_json = |s: &Option<Scenario>| match s {
            Some(s) => Json::from(s.short()),
            None => Json::Null,
        };
        match self {
            WorkloadSpec::Static { apps } => {
                Json::obj().set("kind", "static").set("apps", apps.clone())
            }
            WorkloadSpec::Steady { n_cores, scenario, seed } => Json::obj()
                .set("kind", "steady")
                .set("n_cores", *n_cores)
                .set("scenario", scenario_json(scenario))
                .set("seed", *seed),
            WorkloadSpec::Phased { n_cores, seed, stages } => {
                Json::obj().set("kind", "phased").set("n_cores", *n_cores).set("seed", *seed).set(
                    "stages",
                    Json::Arr(
                        stages
                            .iter()
                            .map(|st| {
                                Json::obj()
                                    .set("scenario", scenario_json(&st.scenario))
                                    .set("intervals", st.intervals)
                            })
                            .collect(),
                    ),
                )
            }
            WorkloadSpec::Bursty { n_cores, seed, arrival, mean_service, horizon, scenario } => {
                let arrival_json = match arrival {
                    ArrivalProcess::Poisson { mean_gap } => {
                        Json::obj().set("kind", "poisson").set("mean_gap", *mean_gap)
                    }
                    ArrivalProcess::Mmpp { mean_gap, mean_dwell } => Json::obj()
                        .set("kind", "mmpp")
                        .set("mean_gap", mean_gap.to_vec())
                        .set("mean_dwell", mean_dwell.to_vec()),
                };
                Json::obj()
                    .set("kind", "bursty")
                    .set("n_cores", *n_cores)
                    .set("seed", *seed)
                    .set("arrival", arrival_json)
                    .set("mean_service", *mean_service)
                    .set("horizon", *horizon)
                    .set("scenario", scenario_json(scenario))
            }
            WorkloadSpec::Churn { n_cores, seed, period, horizon, scenario, pool } => Json::obj()
                .set("kind", "churn")
                .set("n_cores", *n_cores)
                .set("seed", *seed)
                .set("period", *period)
                .set("horizon", *horizon)
                .set("scenario", scenario_json(scenario))
                .set("pool", pool.clone()),
            WorkloadSpec::Scaled { n_cores, seed, copies, segment } => Json::obj()
                .set("kind", "scaled")
                .set("n_cores", *n_cores)
                .set("seed", *seed)
                .set("copies", *copies)
                .set("segment", *segment),
        }
    }

    /// Inverse of [`WorkloadSpec::to_json`].
    pub fn from_json(j: &Json) -> Result<WorkloadSpec, String> {
        let kind = match j.get("kind") {
            Some(Json::Str(s)) => s.as_str(),
            other => {
                return Err(format!("workload spec: missing string field \"kind\" ({other:?})"))
            }
        };
        let scenario_field = |j: &Json| -> Result<Option<Scenario>, String> {
            match j.get("scenario") {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Scenario::from_short(s)
                    .map(Some)
                    .ok_or_else(|| format!("workload spec: unknown scenario {s:?}")),
                other => Err(format!("workload spec: bad scenario field {other:?}")),
            }
        };
        match kind {
            "static" => Ok(WorkloadSpec::Static { apps: str_list(j, "apps")? }),
            "steady" => Ok(WorkloadSpec::Steady {
                n_cores: uint(j, "n_cores")? as usize,
                scenario: scenario_field(j)?,
                seed: uint(j, "seed")?,
            }),
            "phased" => {
                let Some(Json::Arr(items)) = j.get("stages") else {
                    return Err("phased spec: missing array field \"stages\"".into());
                };
                let mut stages = Vec::with_capacity(items.len());
                for item in items {
                    stages.push(Stage {
                        scenario: scenario_field(item)?,
                        intervals: uint(item, "intervals")?,
                    });
                }
                Ok(WorkloadSpec::Phased {
                    n_cores: uint(j, "n_cores")? as usize,
                    seed: uint(j, "seed")?,
                    stages,
                })
            }
            "bursty" => {
                let Some(arrival_j) = j.get("arrival") else {
                    return Err("bursty spec: missing field \"arrival\"".into());
                };
                let arrival = match arrival_j.get("kind") {
                    Some(Json::Str(s)) if s == "poisson" => {
                        ArrivalProcess::Poisson { mean_gap: float(arrival_j, "mean_gap")? }
                    }
                    Some(Json::Str(s)) if s == "mmpp" => ArrivalProcess::Mmpp {
                        mean_gap: float_pair(arrival_j, "mean_gap")?,
                        mean_dwell: float_pair(arrival_j, "mean_dwell")?,
                    },
                    other => return Err(format!("bursty spec: bad arrival kind {other:?}")),
                };
                Ok(WorkloadSpec::Bursty {
                    n_cores: uint(j, "n_cores")? as usize,
                    seed: uint(j, "seed")?,
                    arrival,
                    mean_service: uint(j, "mean_service")?,
                    horizon: uint(j, "horizon")?,
                    scenario: scenario_field(j)?,
                })
            }
            "churn" => Ok(WorkloadSpec::Churn {
                n_cores: uint(j, "n_cores")? as usize,
                seed: uint(j, "seed")?,
                period: uint(j, "period")?,
                horizon: uint(j, "horizon")?,
                scenario: scenario_field(j)?,
                pool: match j.get("pool") {
                    None | Some(Json::Null) => Vec::new(),
                    _ => str_list(j, "pool")?,
                },
            }),
            "scaled" => Ok(WorkloadSpec::Scaled {
                n_cores: uint(j, "n_cores")? as usize,
                seed: uint(j, "seed")?,
                copies: uint(j, "copies")? as usize,
                segment: uint(j, "segment")?,
            }),
            other => Err(format!("workload spec: unknown kind {other:?}")),
        }
    }
}

fn check_even(n_cores: usize) -> Result<(), String> {
    if n_cores >= 2 && n_cores.is_multiple_of(2) {
        Ok(())
    } else {
        Err(format!("§IV-C mixes need an even core count ≥ 2, got {n_cores}"))
    }
}

/// Sample one application: from the scenario's admissible categories (a
/// uniformly chosen half of a uniformly chosen generator pair) or, with no
/// scenario, census-uniform over the 27 applications.
fn sample_app(scenario: Option<Scenario>, rng: &mut StdRng) -> &'static str {
    match scenario {
        None => {
            let census = suite();
            census[rng.random_range(0..census.len())].name
        }
        Some(s) => {
            let pairs = s.generator_pairs();
            let (a, b) = pairs[rng.random_range(0..pairs.len())];
            let cat = if rng.random_bool(0.5) { a } else { b };
            let pool = by_category(cat);
            pool[rng.random_range(0..pool.len())].name
        }
    }
}

/// Jittered starting position within an application's phase sequence.
fn jitter_offset(app: &str, rng: &mut StdRng) -> usize {
    let n = triad_trace::by_name(app).map(|a| a.n_intervals()).unwrap_or(1);
    rng.random_range(0..n)
}

/// Sort events by `(at, core)` and drop departures that coincide with an
/// arrival on the same slot (the arrival already churn-replaces).
fn finish_events(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events.sort_by_key(|e| (e.at, e.core, matches!(e.kind, EventKind::Arrive { .. }) as u8));
    let mut out: Vec<TraceEvent> = Vec::with_capacity(events.len());
    for e in events {
        if let Some(last) = out.last() {
            if last.at == e.at && last.core == e.core {
                // Depart sorts before Arrive on the same slot: replace it.
                out.pop();
            }
        }
        out.push(e);
    }
    out
}

fn materialize_bursty(
    n_cores: usize,
    seed: u64,
    arrival: &ArrivalProcess,
    mean_service: u64,
    horizon: u64,
    scenario: Option<Scenario>,
) -> Result<WorkloadTrace, String> {
    if horizon == 0 {
        return Err("bursty workload needs a nonzero horizon".into());
    }
    if mean_service == 0 {
        return Err("bursty workload needs a nonzero mean service length".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let mut free_at = vec![0u64; n_cores];
    let mut t = 0.0f64;
    // MMPP state (state 0 until the first dwell expires); Poisson ignores it.
    let mut state = 0usize;
    let mut state_until = match arrival {
        ArrivalProcess::Mmpp { mean_dwell, .. } => exp_sample(mean_dwell[0], &mut rng),
        ArrivalProcess::Poisson { .. } => f64::INFINITY,
    };
    loop {
        let gap = match arrival {
            ArrivalProcess::Poisson { mean_gap } => exp_sample(*mean_gap, &mut rng),
            ArrivalProcess::Mmpp { mean_gap, mean_dwell } => {
                while t >= state_until {
                    state ^= 1;
                    state_until += exp_sample(mean_dwell[state], &mut rng);
                }
                exp_sample(mean_gap[state], &mut rng)
            }
        };
        if !gap.is_finite() {
            return Err("arrival process produced a non-finite gap".into());
        }
        t += gap.max(0.0);
        let at = t as u64;
        if at >= horizon {
            break;
        }
        // Lowest-index vacant core takes the arrival; none = the arrival
        // is lost (loss system, like a full admission queue).
        let Some(core) = (0..n_cores).find(|&c| free_at[c] <= at) else {
            continue;
        };
        let app = sample_app(scenario, &mut rng);
        let phase_offset = jitter_offset(app, &mut rng);
        let service = 1 + exp_sample(mean_service as f64, &mut rng).max(0.0) as u64;
        events.push(TraceEvent {
            at,
            core,
            kind: EventKind::Arrive { app: app.to_string(), phase_offset },
        });
        let depart = at + service;
        if depart < horizon {
            events.push(TraceEvent { at: depart, core, kind: EventKind::Depart });
        }
        free_at[core] = depart;
    }
    if events.is_empty() {
        return Err(format!(
            "bursty workload scheduled no arrivals within horizon {horizon} \
             (mean gap too long?)"
        ));
    }
    Ok(WorkloadTrace { n_cores, horizon: Some(horizon), events: finish_events(events) })
}

fn materialize_churn(
    n_cores: usize,
    seed: u64,
    period: u64,
    horizon: u64,
    scenario: Option<Scenario>,
    pool: &[String],
) -> Result<WorkloadTrace, String> {
    if period < 2 {
        return Err("churn period must be at least 2 intervals".into());
    }
    if horizon == 0 {
        return Err("churn workload needs a nonzero horizon".into());
    }
    for app in pool {
        if triad_trace::by_name(app).is_none() {
            return Err(format!("churn pool: unknown application {app:?}"));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // With an explicit pool every core samples from it; with a scenario the
    // §IV-C halves keep their category pools across replacements; otherwise
    // the full census.
    let half_cats = match (pool.is_empty(), scenario) {
        (true, Some(s)) => {
            check_even(n_cores)?;
            let pairs = s.generator_pairs();
            Some(pairs[rng.random_range(0..pairs.len())])
        }
        _ => None,
    };
    let draw = |core: usize, rng: &mut StdRng| -> String {
        if !pool.is_empty() {
            pool[rng.random_range(0..pool.len())].clone()
        } else if let Some((ca, cb)) = half_cats {
            let cat = if core < n_cores / 2 { ca } else { cb };
            let p = by_category(cat);
            p[rng.random_range(0..p.len())].name.to_string()
        } else {
            let census = suite();
            census[rng.random_range(0..census.len())].name.to_string()
        }
    };
    let mut events = Vec::new();
    for core in 0..n_cores {
        // Initial assignment, then replacements every period ± period/2
        // (cold phase restart, per the churn semantics).
        let app = draw(core, &mut rng);
        events.push(TraceEvent { at: 0, core, kind: EventKind::Arrive { app, phase_offset: 0 } });
        let mut t = period / 2 + rng.random_range(0..=period);
        while t < horizon {
            let app = draw(core, &mut rng);
            events.push(TraceEvent {
                at: t,
                core,
                kind: EventKind::Arrive { app, phase_offset: 0 },
            });
            t += period / 2 + rng.random_range(0..=period);
        }
    }
    Ok(WorkloadTrace { n_cores, horizon: Some(horizon), events: finish_events(events) })
}

fn materialize_scaled(
    n_cores: usize,
    seed: u64,
    copies: usize,
    segment: u64,
) -> Result<WorkloadTrace, String> {
    if copies == 0 {
        return Err("scaled workload needs at least one census copy".into());
    }
    if segment == 0 {
        return Err("scaled workload needs a nonzero segment length".into());
    }
    if n_cores == 0 {
        return Err("scaled workload needs at least one core".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // The virtual suite: copies × the census, each instance with its own
    // jittered starting phase position.
    let census = suite();
    let mut virt: Vec<(&'static str, usize)> = Vec::with_capacity(copies * census.len());
    for _ in 0..copies {
        for app in census {
            virt.push((app.name, rng.random_range(0..app.n_intervals())));
        }
    }
    // Fisher–Yates shuffle, then round-robin across the cores.
    for i in (1..virt.len()).rev() {
        let j = rng.random_range(0..=i);
        virt.swap(i, j);
    }
    let mut events = Vec::new();
    let mut rounds = 0u64;
    for (i, (app, phase_offset)) in virt.iter().enumerate() {
        let core = i % n_cores;
        let round = (i / n_cores) as u64;
        rounds = rounds.max(round + 1);
        events.push(TraceEvent {
            at: round * segment,
            core,
            kind: EventKind::Arrive { app: app.to_string(), phase_offset: *phase_offset },
        });
    }
    Ok(WorkloadTrace { n_cores, horizon: Some(rounds * segment), events: finish_events(events) })
}

fn uint(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as u64),
        Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 => Ok(*x as u64),
        other => Err(format!(
            "workload spec: field {key:?} must be a nonnegative integer, got {other:?}"
        )),
    }
}

fn float(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::Num(x)) if x.is_finite() && *x > 0.0 => Ok(*x),
        Some(Json::Int(i)) if *i > 0 => Ok(*i as f64),
        other => {
            Err(format!("workload spec: field {key:?} must be a positive number, got {other:?}"))
        }
    }
}

fn float_pair(j: &Json, key: &str) -> Result<[f64; 2], String> {
    match j.get(key) {
        Some(Json::Arr(items)) if items.len() == 2 => {
            let mut out = [0.0; 2];
            for (slot, item) in out.iter_mut().zip(items) {
                *slot = match item {
                    Json::Num(x) if x.is_finite() && *x > 0.0 => *x,
                    Json::Int(i) if *i > 0 => *i as f64,
                    other => {
                        return Err(format!(
                            "workload spec: {key:?} entries must be positive numbers, \
                             got {other:?}"
                        ))
                    }
                };
            }
            Ok(out)
        }
        other => {
            Err(format!("workload spec: field {key:?} must be a 2-element array, got {other:?}"))
        }
    }
}

fn str_list(j: &Json, key: &str) -> Result<Vec<String>, String> {
    match j.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|i| match i {
                Json::Str(s) => Ok(s.clone()),
                other => Err(format!("workload spec: {key:?} entries must be strings ({other:?})")),
            })
            .collect(),
        other => Err(format!("workload spec: field {key:?} must be an array, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Static { apps: vec!["mcf".into(), "povray".into()] },
            WorkloadSpec::Steady { n_cores: 4, scenario: Some(Scenario::S1), seed: 11 },
            WorkloadSpec::Steady { n_cores: 4, scenario: None, seed: 11 },
            WorkloadSpec::Phased {
                n_cores: 2,
                seed: 5,
                stages: vec![
                    Stage { scenario: Some(Scenario::S1), intervals: 8 },
                    Stage { scenario: Some(Scenario::S4), intervals: 8 },
                ],
            },
            WorkloadSpec::Bursty {
                n_cores: 2,
                seed: 7,
                arrival: ArrivalProcess::Poisson { mean_gap: 3.0 },
                mean_service: 6,
                horizon: 64,
                scenario: None,
            },
            WorkloadSpec::Bursty {
                n_cores: 2,
                seed: 7,
                arrival: ArrivalProcess::Mmpp { mean_gap: [8.0, 1.5], mean_dwell: [16.0, 6.0] },
                mean_service: 6,
                horizon: 64,
                scenario: Some(Scenario::S2),
            },
            WorkloadSpec::Churn {
                n_cores: 2,
                seed: 9,
                period: 8,
                horizon: 48,
                scenario: None,
                pool: vec!["mcf".into(), "povray".into()],
            },
            WorkloadSpec::Churn {
                n_cores: 4,
                seed: 9,
                period: 8,
                horizon: 48,
                scenario: Some(Scenario::S3),
                pool: Vec::new(),
            },
            WorkloadSpec::Scaled { n_cores: 8, seed: 13, copies: 2, segment: 6 },
        ]
    }

    #[test]
    fn every_kind_materializes_a_valid_trace() {
        for spec in kinds() {
            let trace = spec.materialize().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert!(trace.validate().is_ok(), "{spec:?}");
            assert!(trace.n_arrivals() > 0, "{spec:?}");
            assert_eq!(trace.n_cores, spec.n_cores(), "{spec:?}");
        }
    }

    #[test]
    fn json_round_trips_every_kind() {
        for spec in kinds() {
            let s = spec.to_json().to_string_pretty();
            let parsed = triad_util::json::parse(&s).unwrap();
            assert_eq!(WorkloadSpec::from_json(&parsed).unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn static_and_steady_materialize_static_traces() {
        let t =
            WorkloadSpec::Static { apps: vec!["mcf".into(), "gcc".into()] }.materialize().unwrap();
        assert_eq!(t.static_names(), Some(vec!["mcf", "gcc"]));
        let t = WorkloadSpec::Steady { n_cores: 4, scenario: Some(Scenario::S2), seed: 1 }
            .materialize()
            .unwrap();
        assert!(t.static_names().is_some());
    }

    #[test]
    fn bursty_creates_vacancy_windows() {
        let t = WorkloadSpec::Bursty {
            n_cores: 2,
            seed: 3,
            arrival: ArrivalProcess::Poisson { mean_gap: 10.0 },
            mean_service: 4,
            horizon: 200,
            scenario: None,
        }
        .materialize()
        .unwrap();
        assert!(
            t.events.iter().any(|e| matches!(e.kind, EventKind::Depart)),
            "sparse arrivals with short services must produce departures"
        );
    }

    #[test]
    fn churn_replaces_mid_run_and_respects_the_pool() {
        let pool = vec!["mcf".to_string(), "povray".to_string()];
        let t = WorkloadSpec::Churn {
            n_cores: 2,
            seed: 4,
            period: 6,
            horizon: 60,
            scenario: None,
            pool: pool.clone(),
        }
        .materialize()
        .unwrap();
        assert!(t.n_arrivals() > 2, "must churn beyond the initial assignment");
        for e in &t.events {
            if let EventKind::Arrive { app, .. } = &e.kind {
                assert!(pool.contains(app), "{app} outside the pool");
            }
        }
    }

    #[test]
    fn scaled_covers_the_census_copies_times() {
        let t = WorkloadSpec::Scaled { n_cores: 4, seed: 2, copies: 3, segment: 5 }
            .materialize()
            .unwrap();
        assert_eq!(t.n_arrivals(), 3 * 27);
        // Jittered phase profiles: at least one instance starts mid-sequence.
        assert!(t.events.iter().any(
            |e| matches!(&e.kind, EventKind::Arrive { phase_offset, .. } if *phase_offset > 0)
        ));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(WorkloadSpec::Steady { n_cores: 3, scenario: None, seed: 0 }
            .materialize()
            .is_err());
        assert!(WorkloadSpec::Phased { n_cores: 2, seed: 0, stages: vec![] }
            .materialize()
            .is_err());
        assert!(WorkloadSpec::Churn {
            n_cores: 2,
            seed: 0,
            period: 1,
            horizon: 10,
            scenario: None,
            pool: vec![]
        }
        .materialize()
        .is_err());
        assert!(WorkloadSpec::Churn {
            n_cores: 2,
            seed: 0,
            period: 8,
            horizon: 10,
            scenario: None,
            pool: vec!["nope".into()]
        }
        .materialize()
        .is_err());
        assert!(WorkloadSpec::Scaled { n_cores: 2, seed: 0, copies: 0, segment: 4 }
            .materialize()
            .is_err());
    }
}
