//! Files written before the campaign journal became a namespace of the
//! record log must keep opening: the committed fixtures under
//! `crates/mbta/tests/fixtures/` were written by that older code and
//! are never re-blessed.
//!
//! * `sweep_sc2_v1_torn.journal` — `sweep --scenario sc2 --jobs 1
//!   --journal`, its last 3 bytes dropped as `ci.sh golden` tears a
//!   journal (header `mbta-journal v1`);
//! * `profiles_v1.store` — a serve daemon's profile store after a
//!   `bound sc1 high` and a `bound low medium` query.

use contention_bench::sweep_csv;
use mbta::store::{decode_profile, encode_profile, CAMPAIGN_NAMESPACE};
use mbta::{ExecEngine, Store};
use std::path::{Path, PathBuf};
use tc27x_sim::DeploymentScenario;

const GOLDEN_SC2: &str = include_str!("golden/sweep_sc2.csv");

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../mbta/tests/fixtures")
        .join(name)
}

/// A scratch copy of a fixture: recovery truncates torn tails in place.
fn scratch_copy(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("legacy-{}-{name}", std::process::id()));
    std::fs::copy(fixture(name), &path).unwrap();
    path
}

/// Everything after the first line.
fn records(bytes: &[u8]) -> &[u8] {
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    &bytes[header_end..]
}

#[test]
fn torn_v1_journal_resumes_to_the_golden_sweep() {
    let path = scratch_copy("sweep_sc2_v1_torn.journal");
    let campaign = ExecEngine::new(1);
    let report = campaign.resume(&path).unwrap();
    // The older reader recovered the same: 22 records, 49 torn bytes.
    assert_eq!((report.records, report.truncated_bytes), (22, 49));
    let csv = sweep_csv(&campaign, DeploymentScenario::Scenario2).unwrap();
    assert_eq!(csv, GOLDEN_SC2, "resumed v1 journal diverged from golden");
    assert_eq!(
        campaign.report().simulations_run,
        1,
        "only the torn job reruns"
    );
    drop(campaign);
    // The resumed file keeps its legacy header and now replays fully.
    let (_, _, report) = Store::open(&path, CAMPAIGN_NAMESPACE, 0x1c34_5311_f44f_80b0).unwrap();
    assert_eq!((report.records, report.truncated_bytes), (23, 0));
    std::fs::remove_file(&path).ok();
}

#[test]
fn v1_profile_store_decodes_to_the_same_profiles() {
    let path = scratch_copy("profiles_v1.store");
    // The serve daemon's default-platform store fingerprint.
    let (_, values, report) = Store::open(&path, "profiles", 0x3de4_639f_02dc_1483).unwrap();
    assert_eq!((report.records, report.truncated_bytes), (4, 0));
    let mut decoded = Vec::new();
    for (key, value) in &values {
        let (inner, profile) = decode_profile(value).unwrap();
        assert_eq!(inner, *key);
        // Re-encoding writes the very value the older daemon stored.
        assert_eq!(&encode_profile(inner, &profile), value);
        let ptac = profile.ptac().expect("stored profiles carry PTAC");
        let ptac_total: u64 = contention::Target::all()
            .into_iter()
            .flat_map(|t| contention::Operation::all().map(|o| ptac.get(t, o)))
            .sum();
        decoded.push((
            profile.name().to_string(),
            profile.counters().ccnt,
            ptac_total,
        ));
    }
    assert_eq!(
        decoded,
        [
            ("H-Load-scenario1".to_string(), 846_226, 30_520),
            ("cruise-control-low".to_string(), 16_766, 290),
            ("cruise-control-sc1".to_string(), 846_103, 30_520),
            ("M-Load-low-traffic".to_string(), 852_228, 21_070),
        ]
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn new_journal_records_are_byte_identical_to_v1() {
    let fixture = std::fs::read(fixture("sweep_sc2_v1_torn.journal")).unwrap();
    let path = std::env::temp_dir().join(format!("legacy-{}-fresh.journal", std::process::id()));
    {
        let campaign = ExecEngine::new(1);
        campaign.journal(&path).unwrap();
        assert_eq!(
            sweep_csv(&campaign, DeploymentScenario::Scenario2).unwrap(),
            GOLDEN_SC2
        );
    }
    let fresh = std::fs::read(&path).unwrap();
    let (old, new) = (records(&fixture), records(&fresh));
    assert!(
        new.len() > old.len(),
        "the fixture is torn short of a full run"
    );
    assert!(
        new[..old.len()] == *old,
        "record lines diverged from the v1 journal"
    );
    let header = String::from_utf8_lossy(&fresh[..fresh.len() - new.len()]).into_owned();
    assert!(
        header.ends_with(" mbta-store v1 ns=campaign cfg=1c345311f44f80b0\n"),
        "{header}"
    );
    std::fs::remove_file(&path).ok();
}
