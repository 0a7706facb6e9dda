//! The wire-level job specification and its content-addressed cache key.
//!
//! A job is either one mission or one reliability sweep. Both forms parse
//! through the same typed `FromJson` implementations the CLI's flag parsers
//! delegate to, so every knob reachable from a `fig*`/`table*` command line
//! is reachable from an HTTP job spec — and sparse specs fill in the same
//! defaults in both worlds.
//!
//! The cache key is `sha256_hex` of the *canonical* compact JSON: the spec
//! is parsed into typed configs and re-rendered, so two sparse specs that
//! mean the same mission hash to the same key regardless of field order,
//! whitespace or omitted-but-defaulted fields.

use mav_core::reliability::DEFAULT_SHARD_SIZE;
use mav_core::{MissionConfig, ScenarioGenerator};
use mav_types::{sha256_hex, FromJson, Json, ToJson};

/// Upper bound on sweep size per job: a server job is an interactive unit,
/// not an offline campaign. Bigger sweeps should be split across jobs.
pub const MAX_SWEEP_EPISODES: u64 = 100_000;

/// One job: a single mission or a classified reliability sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Run one closed-loop mission and return its report.
    Mission {
        /// The full mission configuration (sparse on the wire; defaults
        /// filled by `MissionConfig::from_json`). Boxed: a `MissionConfig`
        /// is ~700 bytes and would dwarf the sweep variant inline.
        config: Box<MissionConfig>,
    },
    /// Run a seeded reliability sweep and return aggregate + per-class stats.
    Sweep {
        /// The scenario space episodes are drawn from. Boxed like the
        /// mission config: specs wait in the job queue, so the
        /// enum stays pointer-sized-ish rather than carrying the largest
        /// config inline.
        scenario: Box<ScenarioGenerator>,
        /// Number of episodes to run.
        episodes: u64,
        /// Shard size for the deterministic sharded sweep.
        shard_size: u64,
    },
}

impl JobSpec {
    /// Work units for progress reporting: 1 for a mission, the episode count
    /// for a sweep.
    pub fn total_units(&self) -> u64 {
        match self {
            JobSpec::Mission { .. } => 1,
            JobSpec::Sweep { episodes, .. } => *episodes,
        }
    }

    /// The canonical compact JSON rendering: the bytes the cache key hashes.
    pub fn canonical(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// The content-addressed cache key: SHA-256 of [`JobSpec::canonical`].
    pub fn cache_key(&self) -> String {
        sha256_hex(self.canonical().as_bytes())
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        match self {
            JobSpec::Mission { config } => Json::object()
                .field("type", "mission")
                .field("config", config.to_json()),
            JobSpec::Sweep {
                scenario,
                episodes,
                shard_size,
            } => Json::object()
                .field("type", "sweep")
                .field("scenario", scenario.to_json())
                .field("episodes", *episodes)
                .field("shard_size", *shard_size),
        }
    }
}

impl FromJson for JobSpec {
    fn from_json(json: &Json) -> Result<JobSpec, String> {
        let kind: String = json.parse_field("type")?;
        match kind.as_str() {
            "mission" => {
                json.check_fields(&["type", "config"])?;
                Ok(JobSpec::Mission {
                    config: Box::new(json.parse_field("config")?),
                })
            }
            "sweep" => {
                json.check_fields(&["type", "scenario", "episodes", "shard_size"])?;
                let scenario: ScenarioGenerator = json.parse_field("scenario")?;
                let episodes: u64 = json.parse_field("episodes")?;
                if episodes == 0 {
                    return Err("episodes: must be at least 1".into());
                }
                if episodes > MAX_SWEEP_EPISODES {
                    return Err(format!(
                        "episodes: {episodes} exceeds the per-job limit of {MAX_SWEEP_EPISODES}"
                    ));
                }
                let shard_size: u64 = json.parse_field_or("shard_size", DEFAULT_SHARD_SIZE)?;
                if shard_size == 0 {
                    return Err("shard_size: must be at least 1".into());
                }
                Ok(JobSpec::Sweep {
                    scenario: Box::new(scenario),
                    episodes,
                    shard_size,
                })
            }
            other => Err(format!(
                "type: unknown job type `{other}` (expected mission or sweep)"
            )),
        }
    }
}

/// Parses a request body into a spec, mapping both JSON syntax errors and
/// semantic validation errors to one message suitable for a 400 body.
pub fn parse_spec(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    JobSpec::from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mav_compute::ApplicationId;

    #[test]
    fn sparse_and_canonical_specs_share_a_cache_key() {
        let sparse = parse_spec(br#"{"type": "mission", "config": {"application": "scanning"}}"#)
            .expect("sparse spec parses");
        let canonical = parse_spec(sparse.canonical().as_bytes()).expect("canonical re-parses");
        assert_eq!(sparse, canonical);
        assert_eq!(sparse.cache_key(), canonical.cache_key());
        assert_eq!(sparse.cache_key().len(), 64);
    }

    #[test]
    fn different_specs_hash_differently() {
        let a = parse_spec(br#"{"type":"mission","config":{"application":"scanning"}}"#).unwrap();
        let b = parse_spec(br#"{"type":"mission","config":{"application":"scanning","seed":7}}"#)
            .unwrap();
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn sweep_specs_default_and_validate() {
        let spec = parse_spec(
            br#"{"type":"sweep","scenario":{"application":"package-delivery"},"episodes":8}"#,
        )
        .unwrap();
        match &spec {
            JobSpec::Sweep {
                scenario,
                episodes,
                shard_size,
            } => {
                assert_eq!(scenario.application, ApplicationId::PackageDelivery);
                assert_eq!(*episodes, 8);
                assert_eq!(*shard_size, DEFAULT_SHARD_SIZE);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        assert_eq!(spec.total_units(), 8);

        for bad in [
            &br#"{"type":"sweep","scenario":{"application":"scanning"},"episodes":0}"#[..],
            br#"{"type":"sweep","scenario":{"application":"scanning"},"episodes":9999999}"#,
            br#"{"type":"sweep","scenario":{"application":"scanning"}}"#,
            br#"{"type":"teleport"}"#,
            br#"{"config":{}}"#,
            b"not json",
            b"\xff\xfe",
        ] {
            assert!(parse_spec(bad).is_err(), "{:?} should be rejected", bad);
        }
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        let err = parse_spec(br#"{"type":"mission","config":{"application":"scanning","sede":3}}"#)
            .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        let err =
            parse_spec(br#"{"type":"mission","config":{"application":"scanning"},"extra":1}"#)
                .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
    }
}
