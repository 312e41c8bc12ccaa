//! Property suite for the pluggable SRI arbiters.
//!
//! Seeded [`SplitMix64`] request streams drive [`Sri::with_arbitration`]
//! directly, cycle by cycle, and the grant log is checked against the
//! defining property of each policy:
//!
//! * **TDMA** — slot conservation (every grant starts inside the
//!   granting core's own slot and its service fits the slot remainder)
//!   and the worst observed queueing delay never exceeds — and in a
//!   crafted worst case exactly equals — [`platform::tdma_worst_wait`].
//! * **Fixed priority** — a grant always goes to the highest priority
//!   class present (ties to the lowest core index), and the lowest
//!   class's wait obeys the accounting bound: at most one blocking
//!   service minus one, plus the services of every higher-class grant
//!   issued while it waited.
//! * **Priority round-robin** — with all masters in one class and every
//!   core continuously pending, no core waits more than `N − 1` foreign
//!   grants between two of its own (the fairness gap).
//!
//! A final system-level case runs TDMA and fixed-priority platforms
//! through both engines and demands bit-identical counters, extending
//! the tick/event equivalence guarantee beyond the default policy.

use platform::Arbitration;
use tc27x_sim::rng::SplitMix64;
use tc27x_sim::{
    CoreId, DataObject, Operation, Pattern, Placement, Program, Region, SimConfig, Sri, SriRequest,
    System, Target, TaskSpec,
};

/// One entry of the grant log the harness keeps per run.
#[derive(Clone, Copy, Debug)]
struct GrantRec {
    core: usize,
    /// Grant cycle.
    at: u64,
    /// Cycle the granted request was posted.
    posted_at: u64,
    /// Slave occupancy of the granted request.
    service: u32,
}

/// Drives one slave of an [`Sri`] with seeded random request streams
/// from `cores` masters for `cycles` cycles and returns the grant log.
///
/// Each core keeps at most one outstanding transaction (posting again
/// only after the previous grant completes, like a real master), posts
/// with probability 1/`gap` per free cycle, and draws its service time
/// from `services`.
fn drive(
    sri: &mut Sri,
    cores: usize,
    cycles: u64,
    gap: u64,
    services: &[u32],
    rng: &mut SplitMix64,
) -> Vec<GrantRec> {
    let target = Target::Lmu;
    // Per core: Some((posted_at, service)) while a request is queued or
    // in flight; cleared at its grant's `complete_at`.
    let mut outstanding: [Option<(u64, u32)>; CoreId::COUNT] = [None; CoreId::COUNT];
    let mut free_at = [0u64; CoreId::COUNT];
    let mut log = Vec::new();
    for now in 0..cycles {
        for core in 0..cores {
            if outstanding[core].is_none() && free_at[core] <= now && rng.below(gap) == 0 {
                let service = services[rng.below(services.len() as u64) as usize];
                outstanding[core] = Some((now, service));
                sri.post(
                    now,
                    SriRequest {
                        core: CoreId(core as u8),
                        target,
                        class: Operation::Data,
                        write: rng.flip(),
                        service,
                    },
                );
            }
        }
        let grants = sri.step(now);
        for (core, grant) in grants.iter().enumerate() {
            if let Some(g) = grant {
                let (posted_at, service) =
                    outstanding[core].expect("grant for a core with no outstanding request");
                log.push(GrantRec {
                    core,
                    at: now,
                    posted_at,
                    service,
                });
                outstanding[core] = None;
                free_at[core] = g.complete_at;
            }
        }
    }
    log
}

/// TDMA: every grant in a seeded random stream starts inside the
/// granting core's own slot, fits the slot remainder, and waits no
/// longer than the closed-form worst case.
#[test]
fn tdma_grants_stay_inside_the_owning_slot() {
    for (case, &(cores, slot_len)) in [(2usize, 8u32), (3, 16), (3, 21), (2, 43)]
        .iter()
        .enumerate()
    {
        let mut rng = SplitMix64::new(0x7d3a_0000 + case as u64);
        let mut sri = Sri::with_arbitration(
            [0; CoreId::COUNT],
            [Arbitration::Tdma { slot_len }; Target::COUNT],
            cores,
        );
        // Service menu capped at the slot length: longer services can
        // never be granted (validate() forbids building such platforms).
        let services: Vec<u32> = [1, 2, slot_len / 2, slot_len.saturating_sub(1), slot_len]
            .iter()
            .copied()
            .filter(|&s| s >= 1 && s <= slot_len)
            .collect();
        let log = drive(&mut sri, cores, 6_000, 2, &services, &mut rng);
        assert!(log.len() > 100, "stream too idle to be meaningful");
        let l = u64::from(slot_len);
        for g in &log {
            let slot_owner = (g.at / l) % cores as u64;
            assert_eq!(
                slot_owner, g.core as u64,
                "grant at {} went to core {} outside its slot",
                g.at, g.core
            );
            assert!(
                (g.at % l) + u64::from(g.service) <= l,
                "grant at {} (service {}) spills into the next slot",
                g.at,
                g.service
            );
            let bound = platform::tdma_worst_wait(cores, slot_len, g.service);
            assert!(
                g.at - g.posted_at <= bound,
                "wait {} exceeds tdma_worst_wait {} (cores {cores}, slot {slot_len}, service {})",
                g.at - g.posted_at,
                bound,
                g.service
            );
        }
    }
}

/// The TDMA worst case is *exact*: a request posted one cycle into its
/// own slot with a full-slot service just misses the remainder and
/// waits the entire closed-form bound.
#[test]
fn tdma_worst_case_wait_is_attained_exactly() {
    for cores in [1usize, 2, 3] {
        let slot_len = 16u32;
        let service = slot_len; // needs the whole slot; 1 cycle in, it no longer fits
        let mut sri = Sri::with_arbitration(
            [0; CoreId::COUNT],
            [Arbitration::Tdma { slot_len }; Target::COUNT],
            cores,
        );
        sri.post(
            1,
            SriRequest {
                core: CoreId(0),
                target: Target::Lmu,
                class: Operation::Data,
                write: false,
                service,
            },
        );
        let bound = platform::tdma_worst_wait(cores, slot_len, service);
        let mut granted_at = None;
        for now in 1..=(1 + bound + 1) {
            if sri.step(now)[0].is_some() {
                granted_at = Some(now);
                break;
            }
        }
        assert_eq!(
            granted_at,
            Some(1 + bound),
            "cores {cores}: worst-case wait should be exactly tdma_worst_wait = {bound}"
        );
        // The crossbar's own delay accounting agrees.
        assert_eq!(sri.queue_delay(Target::Lmu), bound);
    }
}

/// Fixed priority: in a seeded saturated stream a grant always goes to
/// the highest class pending at that cycle (ties to the lowest core
/// index), and every wait of the lowest class obeys the accounting
/// bound `(max service − 1) + Σ services of higher-class grants issued
/// while it waited` — i.e. starvation is exactly "higher classes kept
/// the slave busy", never arbiter overhead.
#[test]
fn fixed_priority_never_bypasses_a_higher_class() {
    let priority = [0u8, 1, 2]; // core 0 is the lowest class
    let services = [3u32, 5, 7, 11];
    let max_service = 11u64;
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0xf1f0_9000 + seed);
        let mut sri = Sri::with_arbitration(
            priority,
            [Arbitration::FixedPriority; Target::COUNT],
            CoreId::COUNT,
        );
        // Mirror of the queue the harness maintains to judge each grant.
        let target = Target::Lmu;
        let mut outstanding: [Option<(u64, u32)>; CoreId::COUNT] = [None; CoreId::COUNT];
        let mut in_flight: [bool; CoreId::COUNT] = [false; CoreId::COUNT];
        let mut log: Vec<GrantRec> = Vec::new();
        for now in 0..4_000u64 {
            for core in 0..CoreId::COUNT {
                if outstanding[core].is_none() && rng.below(3) == 0 {
                    let service = services[rng.below(services.len() as u64) as usize];
                    outstanding[core] = Some((now, service));
                    in_flight[core] = false;
                    sri.post(
                        now,
                        SriRequest {
                            core: CoreId(core as u8),
                            target,
                            class: Operation::Data,
                            write: false,
                            service,
                        },
                    );
                }
            }
            // Queued = outstanding but not yet granted.
            let queued: Vec<usize> = (0..CoreId::COUNT)
                .filter(|&c| outstanding[c].is_some() && !in_flight[c])
                .collect();
            let grants = sri.step(now);
            for (core, grant) in grants.iter().enumerate() {
                if let Some(g) = grant {
                    let best = queued
                        .iter()
                        .copied()
                        .max_by_key(|&c| (priority[c], std::cmp::Reverse(c)))
                        .expect("grant with an empty queue mirror");
                    assert_eq!(
                        core, best,
                        "cycle {now}: granted core {core}, but the highest class pending was {best}"
                    );
                    let (posted_at, service) = outstanding[core].expect("grant without a post");
                    log.push(GrantRec {
                        core,
                        at: now,
                        posted_at,
                        service,
                    });
                    in_flight[core] = true;
                    let complete = g.complete_at;
                    // Clear at completion by remembering when to free.
                    outstanding[core] = Some((complete, service));
                }
            }
            for core in 0..CoreId::COUNT {
                if in_flight[core] {
                    if let Some((complete_at, _)) = outstanding[core] {
                        if complete_at <= now + 1 {
                            outstanding[core] = None;
                            in_flight[core] = false;
                        }
                    }
                }
            }
        }
        // Starvation bound for the lowest class.
        for g in log.iter().filter(|g| g.core == 0) {
            let higher: u64 = log
                .iter()
                .filter(|h| h.core != 0 && h.at >= g.posted_at && h.at < g.at)
                .map(|h| u64::from(h.service))
                .sum();
            assert!(
                g.at - g.posted_at <= (max_service - 1) + higher,
                "lowest-class wait {} exceeds blocking ({}) + higher-class work ({higher})",
                g.at - g.posted_at,
                max_service - 1
            );
        }
    }
}

/// Deterministic fixed-priority starvation: with both higher classes
/// issuing two back-to-back requests each, the lowest class waits for
/// exactly the sum of their services — no more, no less.
#[test]
fn fixed_priority_lowest_class_waits_exactly_the_higher_work() {
    let mut sri = Sri::with_arbitration(
        [0, 1, 2],
        [Arbitration::FixedPriority; Target::COUNT],
        CoreId::COUNT,
    );
    let post = |sri: &mut Sri, now: u64, core: u8, service: u32| {
        sri.post(
            now,
            SriRequest {
                core: CoreId(core),
                target: Target::Lmu,
                class: Operation::Data,
                write: false,
                service,
            },
        );
    };
    post(&mut sri, 0, 0, 5);
    post(&mut sri, 0, 1, 7);
    post(&mut sri, 0, 2, 7);
    let mut reposted = [false; CoreId::COUNT];
    let mut granted_core0 = None;
    for now in 0..100u64 {
        let grants = sri.step(now);
        for core in 1..CoreId::COUNT {
            if grants[core].is_some() && !reposted[core] {
                // One immediate re-post each: 4 higher-class services
                // of 7 cycles in total before core 0 can win.
                reposted[core] = true;
                post(&mut sri, now, core as u8, 7);
            }
        }
        if grants[0].is_some() {
            granted_core0 = Some(now);
            break;
        }
    }
    assert_eq!(granted_core0, Some(28), "4 × 7 higher-class cycles first");
}

/// Round-robin fairness: with all masters in one class and every core
/// re-posting as soon as it is dequeued, no core ever sees more than
/// `N − 1` foreign grants between two of its own.
#[test]
fn round_robin_grant_gap_is_bounded_under_saturation() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0x20b1_3000 + seed);
        let mut sri = Sri::new(); // all-equal classes, priority round-robin
        let target = Target::Lmu;
        let mut queued = [false; CoreId::COUNT];
        let mut grant_seq: Vec<usize> = Vec::new();
        for now in 0..4_000u64 {
            for (core, q) in queued.iter_mut().enumerate() {
                if !*q {
                    *q = true;
                    sri.post(
                        now,
                        SriRequest {
                            core: CoreId(core as u8),
                            target,
                            class: Operation::Data,
                            write: false,
                            service: 1 + rng.below_u32(9),
                        },
                    );
                }
            }
            let grants = sri.step(now);
            for (core, grant) in grants.iter().enumerate() {
                if grant.is_some() {
                    grant_seq.push(core);
                    queued[core] = false;
                }
            }
        }
        assert!(grant_seq.len() > 300, "stream too idle to be meaningful");
        for core in 0..CoreId::COUNT {
            let positions: Vec<usize> = grant_seq
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == core)
                .map(|(i, _)| i)
                .collect();
            for pair in positions.windows(2) {
                assert!(
                    pair[1] - pair[0] <= CoreId::COUNT,
                    "core {core} waited {} foreign grants (max {})",
                    pair[1] - pair[0] - 1,
                    CoreId::COUNT - 1
                );
            }
        }
    }
}

/// The tick/event bit-identity guarantee extends to the non-default
/// arbitration policies: the TDMA platform and the fixed-priority
/// dual-core AHB platform produce identical counters under both
/// engines.
#[test]
fn tdma_and_fixed_priority_systems_match_across_engines() {
    let contender = || {
        let prog = Program::build(|b| {
            b.repeat(40, |b| {
                b.load("buf", Pattern::Stride(64));
                b.compute(3);
            });
        });
        TaskSpec::new("load", prog, Placement::new(Region::Pflash0, true)).with_object(
            DataObject::new("buf", 1 << 12, Placement::new(Region::Lmu, false)),
        )
    };
    for desc in [
        platform::PlatformDesc::tc27x_tdma(),
        platform::PlatformDesc::ahb2(),
    ] {
        let cores: Vec<CoreId> = (0..desc.cores).map(|c| CoreId(c as u8)).collect();
        let mut outcomes = Vec::new();
        for engine in [tc27x_sim::Engine::Tick, tc27x_sim::Engine::Event] {
            let cfg = SimConfig::from_platform(&desc).with_engine(engine);
            let mut sys = System::with_config(cfg);
            for &core in &cores {
                sys.load(core, &contender()).unwrap();
            }
            let out = sys.run().unwrap();
            let per_core: Vec<_> = cores
                .iter()
                .map(|&c| (out.counters(c), out.ground_truth(c)))
                .collect();
            outcomes.push((out.cycles, per_core));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "engine divergence on platform {}",
            desc.name
        );
    }
}
