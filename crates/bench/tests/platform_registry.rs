//! Registry gate for the built-in platform descriptions: every profile
//! the registry offers must be internally consistent, and the simulator
//! it parameterizes must produce measurements that pass the model-side
//! Strict validator built from the *same* description — the end-to-end
//! contract that keeps `--platform NAME` safe to hand to users.

use contention::validate::{ValidationPolicy, Validator};
use contention::Platform;
use tc27x_sim::{CoreId, DeploymentScenario};

#[test]
fn every_builtin_description_is_internally_consistent() {
    let names = platform::PlatformDesc::names();
    assert!(
        names.contains(&"tc27x") && names.contains(&"tc27x-tdma") && names.contains(&"ahb2"),
        "registry lost a built-in: {names:?}"
    );
    for name in names {
        let desc = platform::PlatformDesc::builtin(name)
            .unwrap_or_else(|| panic!("{name} is listed but not constructible"));
        assert_eq!(desc.name, name, "registry name must match the description");
        desc.validate()
            .unwrap_or_else(|e| panic!("builtin {name} fails validation: {e}"));
    }
    assert!(
        platform::PlatformDesc::builtin("no-such-soc").is_none(),
        "unknown names must not resolve"
    );
}

#[test]
fn every_builtin_platform_produces_strictly_valid_profiles() {
    for name in platform::PlatformDesc::names() {
        let desc = platform::PlatformDesc::builtin(name).unwrap();
        let tables = Platform::from_desc(&desc);
        let validator = Validator::new(&tables, ValidationPolicy::Strict);
        // LowTraffic places code in Pflash0 and data in the LMU — the
        // two slots every built-in provides — so the same workload is
        // feasible on all of them.
        let core = CoreId(desc.app_core as u8);
        let app = workloads::control_loop(DeploymentScenario::LowTraffic, core, 7);
        let profile = mbta::ExecEngine::sequential()
            .with_platform(desc.clone())
            .isolation(&app, core)
            .unwrap_or_else(|e| panic!("{name}: isolation run failed: {e}"));
        let report = validator.check(&profile);
        assert!(
            report.is_clean(),
            "{name}: simulator profile violates the derived model invariants: {report:?}"
        );
    }
}
