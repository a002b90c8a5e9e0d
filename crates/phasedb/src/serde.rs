//! Canonical JSON serialization of the phase database.
//!
//! The persisted artifact must replay campaigns **bit-exactly**: a database
//! loaded from disk has to produce byte-identical campaign reports to the
//! one that was built in-process. Every float therefore goes through the
//! canonical writer's shortest-round-trip encoding (exact for all finite
//! `f64`), and the rare non-finite value — the INFINITY sentinel that marks
//! infeasible curve entries downstream — is encoded as the strings
//! `"inf"`/`"-inf"`/`"nan"` because JSON itself has no such literals and
//! the canonical writer would otherwise collapse them to `null`.
//!
//! Application *specs* are stored by name only and re-attached from the
//! caller's spec list on load: the [`crate::db_fingerprint`] store key
//! already covers every spec parameter, so a cache file can never be
//! attached to specs it was not built from.

use crate::build::DbConfig;
use crate::record::{AppDbEntry, MonitorStats, PhaseDb, PhaseRecord, NC, NW, W_MAX};
use triad_trace::AppSpec;
use triad_util::json::Json;

/// Schema tag stored in (and required of) every persisted database.
pub const DB_SCHEMA: &str = "triad-phasedb/v1";

/// Encode one `f64`, preserving non-finite values via string sentinels.
fn enc_f64(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else if x.is_nan() {
        Json::Str("nan".into())
    } else if x > 0.0 {
        Json::Str("inf".into())
    } else {
        Json::Str("-inf".into())
    }
}

/// Decode an [`enc_f64`] value.
fn dec_f64(j: &Json) -> Result<f64, String> {
    match j {
        Json::Num(x) => Ok(*x),
        Json::Int(i) => Ok(*i as f64),
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(format!("expected a number, found string {other:?}")),
        },
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn enc_f64_vec(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| enc_f64(x)).collect())
}

fn dec_f64_vec(j: &Json, what: &str, expect_len: usize) -> Result<Vec<f64>, String> {
    let Json::Arr(items) = j else { return Err(format!("{what}: expected an array")) };
    if items.len() != expect_len {
        return Err(format!("{what}: expected {expect_len} entries, found {}", items.len()));
    }
    items.iter().map(dec_f64).collect::<Result<_, _>>().map_err(|e| format!("{what}: {e}"))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    dec_f64(field(obj, key)?).map_err(|e| format!("{key}: {e}"))
}

impl MonitorStats {
    /// Canonical JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("c0_cpi", enc_f64(self.c0_cpi))
            .set("c_branch_cpi", enc_f64(self.c_branch_cpi))
            .set("c_cache_cpi", enc_f64(self.c_cache_cpi))
            .set("tmem_spi", enc_f64(self.tmem_spi))
            .set("mlp_avg", enc_f64(self.mlp_avg))
            .set("lm_pi", enc_f64_vec(&self.lm_pi))
            .set("ma_pi", enc_f64(self.ma_pi))
    }

    /// Inverse of [`MonitorStats::to_json`].
    pub fn from_json(j: &Json) -> Result<MonitorStats, String> {
        Ok(MonitorStats {
            c0_cpi: f64_field(j, "c0_cpi")?,
            c_branch_cpi: f64_field(j, "c_branch_cpi")?,
            c_cache_cpi: f64_field(j, "c_cache_cpi")?,
            tmem_spi: f64_field(j, "tmem_spi")?,
            mlp_avg: f64_field(j, "mlp_avg")?,
            lm_pi: dec_f64_vec(field(j, "lm_pi")?, "lm_pi", NC * NW)?,
            ma_pi: f64_field(j, "ma_pi")?,
        })
    }
}

impl PhaseRecord {
    /// Canonical JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("a_cpi", enc_f64_vec(&self.a_cpi))
            .set("b_spi", enc_f64_vec(&self.b_spi))
            .set("monitor", Json::Arr(self.monitor.iter().map(MonitorStats::to_json).collect()))
            .set("miss_curve_pi", enc_f64_vec(&self.miss_curve_pi))
            .set("load_miss_curve_pi", enc_f64_vec(&self.load_miss_curve_pi))
            .set("llc_acc_pi", enc_f64(self.llc_acc_pi))
            .set("wb_frac", enc_f64(self.wb_frac))
            .set("true_mlp", enc_f64_vec(&self.true_mlp))
    }

    /// Inverse of [`PhaseRecord::to_json`], with shape validation
    /// (per-configuration matrices must be `NC × NW`, miss curves must
    /// cover ways `1..=W_MAX`).
    pub fn from_json(j: &Json) -> Result<PhaseRecord, String> {
        let Json::Arr(mon) = field(j, "monitor")? else {
            return Err("monitor: expected an array".into());
        };
        if mon.len() != NC * NW {
            return Err(format!("monitor: expected {} entries, found {}", NC * NW, mon.len()));
        }
        Ok(PhaseRecord {
            a_cpi: dec_f64_vec(field(j, "a_cpi")?, "a_cpi", NC * NW)?,
            b_spi: dec_f64_vec(field(j, "b_spi")?, "b_spi", NC * NW)?,
            monitor: mon.iter().map(MonitorStats::from_json).collect::<Result<_, _>>()?,
            miss_curve_pi: dec_f64_vec(field(j, "miss_curve_pi")?, "miss_curve_pi", W_MAX)?,
            load_miss_curve_pi: dec_f64_vec(
                field(j, "load_miss_curve_pi")?,
                "load_miss_curve_pi",
                W_MAX,
            )?,
            llc_acc_pi: f64_field(j, "llc_acc_pi")?,
            wb_frac: f64_field(j, "wb_frac")?,
            true_mlp: dec_f64_vec(field(j, "true_mlp")?, "true_mlp", NC * NW)?,
        })
    }
}

impl AppDbEntry {
    /// Canonical JSON form (the spec is stored by name; see module docs).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("name", self.spec.name)
            .set("records", Json::Arr(self.records.iter().map(PhaseRecord::to_json).collect()))
    }

    /// Inverse of [`AppDbEntry::to_json`], re-attaching `spec`.
    pub fn from_json(j: &Json, spec: &AppSpec) -> Result<AppDbEntry, String> {
        let Json::Str(name) = field(j, "name")? else {
            return Err("name: expected a string".into());
        };
        if name != spec.name {
            return Err(format!("app order mismatch: stored {name:?}, expected {:?}", spec.name));
        }
        let Json::Arr(recs) = field(j, "records")? else {
            return Err("records: expected an array".into());
        };
        if recs.len() != spec.phases.len() {
            return Err(format!(
                "{name}: expected {} phase records, found {}",
                spec.phases.len(),
                recs.len()
            ));
        }
        Ok(AppDbEntry {
            spec: spec.clone(),
            records: recs
                .iter()
                .map(PhaseRecord::from_json)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("{name}: {e}"))?,
        })
    }
}

/// Encode a database (plus its provenance: store fingerprint and build
/// configuration) as one canonical JSON document.
pub fn db_to_json(db: &PhaseDb, fingerprint: &str, cfg: &DbConfig) -> Json {
    Json::obj()
        .set("schema", DB_SCHEMA)
        .set("fingerprint", fingerprint)
        .set(
            "config",
            Json::obj()
                .set("scale", cfg.scale)
                .set("warmup", cfg.warmup)
                .set("detail", cfg.detail)
                // Stringified: the JSON integer type is i64 and the seed is
                // a full-range u64 (provenance only, never decoded).
                .set("seed", cfg.seed.to_string())
                .set("fit_lo_hz", enc_f64(cfg.fit_lo_hz))
                .set("fit_hi_hz", enc_f64(cfg.fit_hi_hz)),
        )
        .set("apps", Json::Arr(db.apps.iter().map(AppDbEntry::to_json).collect()))
}

/// Decode a database document, re-attaching the given application specs
/// (which must match the stored app list in name and order — the store key
/// guarantees this for cache hits; anything else is treated as corruption).
pub fn db_from_json(doc: &Json, apps: &[AppSpec]) -> Result<PhaseDb, String> {
    match field(doc, "schema")? {
        Json::Str(s) if s == DB_SCHEMA => {}
        other => return Err(format!("unsupported schema {other:?}, expected {DB_SCHEMA:?}")),
    }
    let Json::Arr(stored) = field(doc, "apps")? else {
        return Err("apps: expected an array".into());
    };
    if stored.len() != apps.len() {
        return Err(format!("expected {} apps, found {}", apps.len(), stored.len()));
    }
    let entries = stored
        .iter()
        .zip(apps)
        .map(|(j, spec)| AppDbEntry::from_json(j, spec))
        .collect::<Result<_, _>>()?;
    Ok(PhaseDb { apps: entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_apps;
    use triad_util::json::parse;

    fn tiny_db() -> (Vec<AppSpec>, PhaseDb) {
        let apps: Vec<AppSpec> =
            triad_trace::suite().iter().filter(|a| a.name == "povray").cloned().collect();
        let db = build_apps(&apps, &DbConfig::fast());
        (apps, db)
    }

    fn assert_db_eq(a: &PhaseDb, b: &PhaseDb) {
        assert_eq!(a.apps.len(), b.apps.len());
        for (x, y) in a.apps.iter().zip(&b.apps) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.records.len(), y.records.len());
            for (r, s) in x.records.iter().zip(&y.records) {
                assert_eq!(r.a_cpi, s.a_cpi);
                assert_eq!(r.b_spi, s.b_spi);
                assert_eq!(r.miss_curve_pi, s.miss_curve_pi);
                assert_eq!(r.load_miss_curve_pi, s.load_miss_curve_pi);
                assert_eq!(r.llc_acc_pi, s.llc_acc_pi);
                assert_eq!(r.wb_frac, s.wb_frac);
                assert_eq!(r.true_mlp, s.true_mlp);
                for (m, n) in r.monitor.iter().zip(&s.monitor) {
                    assert_eq!(m.c0_cpi, n.c0_cpi);
                    assert_eq!(m.c_branch_cpi, n.c_branch_cpi);
                    assert_eq!(m.c_cache_cpi, n.c_cache_cpi);
                    assert_eq!(m.tmem_spi, n.tmem_spi);
                    assert_eq!(m.mlp_avg, n.mlp_avg);
                    assert_eq!(m.lm_pi, n.lm_pi);
                    assert_eq!(m.ma_pi, n.ma_pi);
                }
            }
        }
    }

    #[test]
    fn database_roundtrips_bit_exactly_through_text() {
        let (apps, db) = tiny_db();
        let cfg = DbConfig::fast();
        let text = db_to_json(&db, "fp", &cfg).to_string_compact();
        let back = db_from_json(&parse(&text).unwrap(), &apps).unwrap();
        assert_db_eq(&db, &back);
        // And the re-encoding is byte-identical (canonical form is a
        // fixed point).
        assert_eq!(db_to_json(&back, "fp", &cfg).to_string_compact(), text);
    }

    #[test]
    fn infinity_sentinel_survives_roundtrip() {
        let (apps, mut db) = tiny_db();
        // Infeasible-entry sentinel, as downstream energy curves use it.
        db.apps[0].records[0].a_cpi[0] = f64::INFINITY;
        db.apps[0].records[0].b_spi[1] = f64::NEG_INFINITY;
        let text = db_to_json(&db, "fp", &DbConfig::fast()).to_string_compact();
        let back = db_from_json(&parse(&text).unwrap(), &apps).unwrap();
        assert_eq!(back.apps[0].records[0].a_cpi[0], f64::INFINITY);
        assert_eq!(back.apps[0].records[0].b_spi[1], f64::NEG_INFINITY);
    }

    #[test]
    fn shape_violations_are_rejected() {
        let (apps, db) = tiny_db();
        let cfg = DbConfig::fast();

        let mut doc = db_to_json(&db, "fp", &cfg);
        // Wrong schema.
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Str("bogus/v0".into());
        }
        assert!(db_from_json(&doc, &apps).is_err());

        // Truncated miss curve.
        let mut bad = db.clone();
        bad.apps[0].records[0].miss_curve_pi.pop();
        assert!(db_from_json(&db_to_json(&bad, "fp", &cfg), &apps).is_err());

        // App-name mismatch.
        let other: Vec<AppSpec> =
            triad_trace::suite().iter().filter(|a| a.name == "mcf").cloned().collect();
        assert!(db_from_json(&db_to_json(&db, "fp", &cfg), &other).is_err());
    }
}
