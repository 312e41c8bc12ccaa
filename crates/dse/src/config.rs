//! Campaign configuration and the design-space point grid.
//!
//! A campaign is a grid of `utils × sets` points: `utils` utilization
//! levels linearly spaced in `[util_min_ppm, util_max_ppm]`, each
//! sampled with `sets` independently seeded task sets. Every point has
//! a stable FNV identity ([`PointId::key`]) that is a pure function of
//! the campaign seed and the point coordinates — the key both
//! content-addresses the point's record in its shard store and decides
//! which shard owns it (`key % shards`), so re-partitioning the space
//! never changes what any point computes.

use crate::error::DseError;
use mbta::args::{take_parsed, take_platform};
use obs::Fnv;
use tc27x_sim::DeploymentScenario;

/// Utilization is carried in parts-per-million throughout the crate.
pub const PPM: u64 = 1_000_000;

/// The full description of a design-space campaign. Two processes with
/// equal configs compute byte-identical shard records; the
/// [`DseConfig::fingerprint`] gates every shard store against replaying
/// foreign state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DseConfig {
    /// Master seed: task-set draws and point keys derive from it.
    pub seed: u64,
    /// Platform description the model ratios are derived on. The
    /// default (paper TC27x) leaves every fingerprint unchanged; any
    /// other description is folded in, so two campaigns over different
    /// machines never share shard state.
    pub platform: platform::PlatformDesc,
    /// Deployment scenario the model ratios are derived under.
    pub scenario: DeploymentScenario,
    /// Number of utilization grid points.
    pub utils: u32,
    /// Lowest total utilization, ppm.
    pub util_min_ppm: u64,
    /// Highest total utilization, ppm (may exceed 1.0 to show the
    /// saturated tail of the curve).
    pub util_max_ppm: u64,
    /// Task sets drawn per utilization point.
    pub sets: u32,
    /// Tasks per set.
    pub tasks: u32,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            seed: 42,
            platform: platform::default_platform().clone(),
            scenario: DeploymentScenario::Scenario1,
            utils: 10,
            util_min_ppm: 100_000,
            util_max_ppm: 1_000_000,
            sets: 16,
            tasks: 4,
        }
    }
}

impl DseConfig {
    /// Removes the campaign-grid flags (`--seed`, `--scenario`,
    /// `--platform`, `--utils`, `--util-min-ppm`, `--util-max-ppm`,
    /// `--sets`, `--tasks`) from a command line; absent ones keep their
    /// defaults. The supervisor and its workers share this parser.
    ///
    /// # Errors
    ///
    /// A missing or malformed value.
    pub fn take(args: &mut Vec<String>) -> Result<DseConfig, String> {
        let d = DseConfig::default();
        Ok(DseConfig {
            seed: take_parsed(args, "--seed")?.unwrap_or(d.seed),
            platform: take_platform(args)?,
            scenario: take_parsed(args, "--scenario")?.unwrap_or(d.scenario),
            utils: take_parsed(args, "--utils")?.unwrap_or(d.utils),
            util_min_ppm: take_parsed(args, "--util-min-ppm")?.unwrap_or(d.util_min_ppm),
            util_max_ppm: take_parsed(args, "--util-max-ppm")?.unwrap_or(d.util_max_ppm),
            sets: take_parsed(args, "--sets")?.unwrap_or(d.sets),
            tasks: take_parsed(args, "--tasks")?.unwrap_or(d.tasks),
        })
    }

    /// Validates the grid shape.
    ///
    /// # Errors
    ///
    /// [`DseError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), DseError> {
        if self.utils == 0 || self.sets == 0 || self.tasks == 0 {
            return Err(DseError::Config(
                "utils, sets and tasks must all be at least 1".to_string(),
            ));
        }
        if self.util_min_ppm == 0 || self.util_min_ppm > self.util_max_ppm {
            return Err(DseError::Config(format!(
                "utilization range [{}, {}] ppm is empty or starts at zero",
                self.util_min_ppm, self.util_max_ppm
            )));
        }
        if self.util_max_ppm > 2 * PPM {
            return Err(DseError::Config(format!(
                "util_max_ppm {} exceeds the 2.0 sanity cap",
                self.util_max_ppm
            )));
        }
        self.platform
            .validate()
            .map_err(|e| DseError::Config(format!("platform `{}`: {e}", self.platform.name)))?;
        Ok(())
    }

    /// The campaign fingerprint: everything that changes what a point
    /// computes. Shard count, worker count, chaos plans, retry policy
    /// and watchdog are all *environmental* and deliberately excluded —
    /// a resumed campaign may change any of them.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str_delimited("dse-campaign/v1");
        if !self.platform.is_default() {
            h.write_str_delimited("platform");
            h.write_u64(self.platform.fingerprint());
        }
        h.write_u64(self.seed);
        h.write_str_delimited(self.scenario.token());
        h.write_u64(u64::from(self.utils));
        h.write_u64(self.util_min_ppm);
        h.write_u64(self.util_max_ppm);
        h.write_u64(u64::from(self.sets));
        h.write_u64(u64::from(self.tasks));
        h.finish()
    }

    /// Total utilization (ppm) of grid point `u_idx`, linearly spaced.
    pub fn util_ppm(&self, u_idx: u32) -> u64 {
        if self.utils <= 1 {
            return self.util_max_ppm;
        }
        let span = self.util_max_ppm - self.util_min_ppm;
        self.util_min_ppm + span * u64::from(u_idx) / u64::from(self.utils - 1)
    }

    /// Number of points in the grid.
    pub fn total_points(&self) -> u64 {
        u64::from(self.utils) * u64::from(self.sets)
    }

    /// All points in canonical order (utilization-major).
    pub fn points(&self) -> impl Iterator<Item = PointId> + '_ {
        let sets = self.sets;
        (0..self.utils).flat_map(move |u_idx| (0..sets).map(move |rep| PointId { u_idx, rep }))
    }

    /// The points owned by `shard` out of `shards`, in canonical order.
    pub fn shard_points(&self, shards: u32, shard: u32) -> Vec<PointId> {
        self.points()
            .filter(|p| p.shard(self, shards) == shard)
            .collect()
    }
}

/// One point of the design space: a (utilization level, replicate)
/// coordinate pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PointId {
    /// Utilization grid index, `0..utils`.
    pub u_idx: u32,
    /// Replicate index within the level, `0..sets`.
    pub rep: u32,
}

impl PointId {
    /// The point's stable FNV identity under `cfg`. Store key and shard
    /// assignment both derive from this.
    pub fn key(&self, cfg: &DseConfig) -> u64 {
        let mut h = Fnv::new();
        h.write_str_delimited("dse/point");
        h.write_u64(cfg.seed);
        h.write_u64(u64::from(self.u_idx));
        h.write_u64(u64::from(self.rep));
        h.finish()
    }

    /// The seed the point's task set is drawn from — a separate hash
    /// domain from [`PointId::key`] so store keys and RNG streams never
    /// alias.
    pub fn taskset_seed(&self, cfg: &DseConfig) -> u64 {
        let mut h = Fnv::new();
        h.write_str_delimited("dse/taskset");
        h.write_u64(cfg.seed);
        h.write_u64(u64::from(self.u_idx));
        h.write_u64(u64::from(self.rep));
        h.finish()
    }

    /// Which shard owns this point under an `shards`-way split.
    pub fn shard(&self, cfg: &DseConfig, shards: u32) -> u32 {
        (self.key(cfg) % u64::from(shards.max(1))) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_semantic_fields_only() {
        let base = DseConfig::default();
        let mut seeded = base.clone();
        seeded.seed ^= 1;
        assert_ne!(base.fingerprint(), seeded.fingerprint());
        let mut wider = base.clone();
        wider.tasks += 1;
        assert_ne!(base.fingerprint(), wider.fingerprint());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }

    #[test]
    fn fingerprint_binds_the_platform_but_default_is_stable() {
        let base = DseConfig::default();
        assert!(base.platform.is_default());
        let tdma = DseConfig {
            platform: platform::PlatformDesc::tc27x_tdma(),
            ..base.clone()
        };
        let ahb = DseConfig {
            platform: platform::PlatformDesc::ahb2(),
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), tdma.fingerprint());
        assert_ne!(base.fingerprint(), ahb.fingerprint());
        assert_ne!(tdma.fingerprint(), ahb.fingerprint());
        // Spelling out the default explicitly keys identically.
        let explicit = DseConfig {
            platform: platform::PlatformDesc::tc27x(),
            ..base.clone()
        };
        assert_eq!(base.fingerprint(), explicit.fingerprint());
    }

    #[test]
    fn util_grid_spans_the_range_inclusively() {
        let cfg = DseConfig {
            utils: 5,
            util_min_ppm: 200_000,
            util_max_ppm: 1_000_000,
            ..Default::default()
        };
        assert_eq!(cfg.util_ppm(0), 200_000);
        assert_eq!(cfg.util_ppm(4), 1_000_000);
        assert_eq!(cfg.util_ppm(2), 600_000);
    }

    #[test]
    fn shards_partition_the_points_exactly() {
        let cfg = DseConfig {
            utils: 7,
            sets: 9,
            ..Default::default()
        };
        for shards in [1u32, 2, 5] {
            let total: usize = (0..shards).map(|s| cfg.shard_points(shards, s).len()).sum();
            assert_eq!(total as u64, cfg.total_points(), "shards={shards}");
            // No point in two shards.
            let mut seen = std::collections::BTreeSet::new();
            for s in 0..shards {
                for p in cfg.shard_points(shards, s) {
                    assert!(seen.insert(p.key(&cfg)), "duplicate point across shards");
                }
            }
        }
    }

    #[test]
    fn keys_and_seeds_live_in_separate_domains() {
        let cfg = DseConfig::default();
        let p = PointId { u_idx: 1, rep: 2 };
        assert_ne!(p.key(&cfg), p.taskset_seed(&cfg));
    }

    #[test]
    fn validation_rejects_degenerate_grids() {
        let cfg = DseConfig {
            utils: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DseConfig {
            util_min_ppm: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = DseConfig {
            util_max_ppm: 3 * PPM,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        assert!(DseConfig::default().validate().is_ok());
    }
}
