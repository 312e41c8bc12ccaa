//! The Shared Resource Interconnect: a crossbar with pluggable
//! per-slave arbitration ([`Arbiter`]).
//!
//! The SRI lets transactions to *distinct* slaves proceed in parallel;
//! contention arises only between requests to the same slave (§2 of the
//! paper). Each slave serves one transaction at a time; which waiting
//! request a free slave grants is the arbiter's decision. Three policies
//! exist, selected per slave by the platform description
//! ([`platform::Arbitration`]):
//!
//! * [`PriorityRoundRobin`] — the TC27x default: masters carry a
//!   priority class, the highest class present wins, ties within a
//!   class are broken round-robin over cores. With all masters in one
//!   class (the paper's "most stressing" case) this degenerates to
//!   plain round-robin.
//! * [`FixedPriority`] — strict: the highest class always wins, ties
//!   broken by the lower core index; in-flight transactions are never
//!   preempted (so a low-priority request can block for at most one
//!   service).
//! * [`Tdma`] — time-division: the schedule cycles through one slot per
//!   active core; a request is granted only inside its own slot and
//!   only if its service fits the slot remainder, so transactions never
//!   spill into foreign slots and contenders cannot delay a grant.
//!
//! Every arbiter must also *predict* its next grant cycle exactly
//! ([`Arbiter::next_grant`]) — that prediction is the event kernel's
//! claim, and any error would break the bit-identity between the event
//! kernel and the per-cycle reference stepper.

use crate::addr::CoreId;
use crate::attribution::{Attribution, AttributionMatrix};
use crate::{Operation, Target};
use platform::Arbitration;

/// A request posted by a core's PMI or DMI.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SriRequest {
    /// Requesting core.
    pub core: CoreId,
    /// Destination slave.
    pub target: Target,
    /// Code fetch or data access (the paper's `O = {co, da}`).
    pub class: Operation,
    /// Write transaction (store or cache write-back).
    pub write: bool,
    /// Slave occupancy in cycles.
    pub service: u32,
}

/// A queued request as the arbiters see it.
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    /// Requesting core.
    pub core: CoreId,
    /// Slave occupancy in cycles.
    pub service: u32,
    /// Cycle the request was posted — grant time minus this is the
    /// exact queueing delay the crossbar imposed on the requester.
    pub posted_at: u64,
    /// Code fetch or data access; arbiters ignore it, the attribution
    /// ledger splits victim waits by it.
    pub class: Operation,
}

/// Per-slave arbitration policy: picks which queued request a free
/// slave grants, and predicts the next cycle any grant could be issued
/// (the event kernel's claim for this slave).
pub trait Arbiter {
    /// Index into `queue` of the request granted at `now` on a *free*
    /// slave, or `None` if no queued request may start this cycle.
    /// `last_grant` is the slave's round-robin pointer (core index of
    /// the most recent grant); policies that do not rotate ignore it.
    fn pick(
        &self,
        now: u64,
        queue: &[Pending],
        last_grant: usize,
        priority: &[u8; CoreId::COUNT],
    ) -> Option<usize>;

    /// The earliest cycle `≥ now` at which [`Arbiter::pick`] succeeds,
    /// given the slave frees at `busy_until` and the queue stays as it
    /// is. `None` iff the queue is empty (a passive slave claims
    /// nothing). Exactness is load-bearing: the event kernel steps the
    /// crossbar only at claimed cycles.
    fn next_grant(
        &self,
        now: u64,
        busy_until: u64,
        queue: &[Pending],
        priority: &[u8; CoreId::COUNT],
    ) -> Option<u64>;
}

/// Priority classes, round-robin within the winning class (the TC27x
/// SRI policy).
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityRoundRobin;

impl Arbiter for PriorityRoundRobin {
    fn pick(
        &self,
        _now: u64,
        queue: &[Pending],
        last_grant: usize,
        priority: &[u8; CoreId::COUNT],
    ) -> Option<usize> {
        // Highest priority class present wins; round-robin within the
        // class (first queued core strictly after `last_grant` in
        // circular core order).
        let best_class = queue.iter().map(|p| priority[p.core.index()]).max()?;
        (1..=CoreId::COUNT)
            .map(|d| (last_grant + d) % CoreId::COUNT)
            .filter(|&c| priority[c] == best_class)
            .find_map(|c| queue.iter().position(|p| p.core.index() == c))
    }

    fn next_grant(
        &self,
        now: u64,
        busy_until: u64,
        queue: &[Pending],
        _priority: &[u8; CoreId::COUNT],
    ) -> Option<u64> {
        // A free slave with any waiter grants immediately.
        (!queue.is_empty()).then(|| busy_until.max(now))
    }
}

/// Strict fixed priority: highest class wins, ties broken by the lower
/// core index; never rotates.
#[derive(Clone, Copy, Debug, Default)]
pub struct FixedPriority;

impl Arbiter for FixedPriority {
    fn pick(
        &self,
        _now: u64,
        queue: &[Pending],
        _last_grant: usize,
        priority: &[u8; CoreId::COUNT],
    ) -> Option<usize> {
        queue
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| (priority[p.core.index()], std::cmp::Reverse(p.core.index())))
            .map(|(i, _)| i)
    }

    fn next_grant(
        &self,
        now: u64,
        busy_until: u64,
        queue: &[Pending],
        _priority: &[u8; CoreId::COUNT],
    ) -> Option<u64> {
        (!queue.is_empty()).then(|| busy_until.max(now))
    }
}

/// Time-division multiplexing over the active cores: slot `i` of every
/// `cores × slot_len` period belongs to core `i`, and a grant must fit
/// the remainder of its own slot.
#[derive(Clone, Copy, Debug)]
pub struct Tdma {
    slot_len: u64,
    cores: u64,
}

impl Tdma {
    /// Creates the schedule; `slot_len` must cover every service this
    /// slave can be asked for (the platform validator enforces this for
    /// described platforms).
    pub fn new(slot_len: u32, cores: usize) -> Self {
        assert!(slot_len > 0 && cores > 0, "degenerate TDMA schedule");
        Tdma {
            slot_len: u64::from(slot_len),
            cores: cores as u64,
        }
    }

    /// The earliest cycle `≥ from` at which `p` can start: inside its
    /// own slot with `service` cycles of the slot remaining.
    fn next_start(&self, from: u64, p: &Pending) -> u64 {
        let (l, n) = (self.slot_len, self.cores);
        let s = u64::from(p.service);
        debug_assert!(s <= l, "TDMA slot {l} cannot fit a service of {s}");
        let slot = from / l;
        let core = p.core.index() as u64 % n;
        if slot % n == core && (from % l) + s <= l {
            return from;
        }
        // Jump to the start of the core's next slot (a full period
        // ahead when we are late in our own slot).
        let mut delta = (core + n - slot % n) % n;
        if delta == 0 {
            delta = n;
        }
        (slot + delta) * l
    }
}

impl Arbiter for Tdma {
    fn pick(
        &self,
        now: u64,
        queue: &[Pending],
        _last_grant: usize,
        _priority: &[u8; CoreId::COUNT],
    ) -> Option<usize> {
        let owner = (now / self.slot_len) % self.cores;
        let remaining = self.slot_len - (now % self.slot_len);
        queue.iter().position(|p| {
            p.core.index() as u64 % self.cores == owner && u64::from(p.service) <= remaining
        })
    }

    fn next_grant(
        &self,
        now: u64,
        busy_until: u64,
        queue: &[Pending],
        _priority: &[u8; CoreId::COUNT],
    ) -> Option<u64> {
        let from = busy_until.max(now);
        queue.iter().map(|p| self.next_start(from, p)).min()
    }
}

/// The arbiter of one slave port, dispatching to the concrete policy
/// (an enum so [`Sri`] stays `Clone + Debug`).
#[derive(Clone, Copy, Debug)]
enum SlaveArbiter {
    Prr(PriorityRoundRobin),
    Fp(FixedPriority),
    Tdma(Tdma),
}

impl SlaveArbiter {
    fn from_policy(policy: Arbitration, cores: usize) -> Self {
        match policy {
            Arbitration::PriorityRoundRobin => SlaveArbiter::Prr(PriorityRoundRobin),
            Arbitration::FixedPriority => SlaveArbiter::Fp(FixedPriority),
            Arbitration::Tdma { slot_len } => SlaveArbiter::Tdma(Tdma::new(slot_len, cores)),
        }
    }

    /// The schedule period for TDMA (`slot_len × cores`): grants depend
    /// on `now` modulo it. `None` for policies blind to absolute time.
    fn period(&self) -> Option<u64> {
        match self {
            SlaveArbiter::Tdma(t) => Some(t.slot_len * t.cores),
            SlaveArbiter::Prr(_) | SlaveArbiter::Fp(_) => None,
        }
    }

    fn as_arbiter(&self) -> &dyn Arbiter {
        match self {
            SlaveArbiter::Prr(a) => a,
            SlaveArbiter::Fp(a) => a,
            SlaveArbiter::Tdma(a) => a,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Slave {
    /// Cycle at which the slave becomes free again.
    busy_until: u64,
    /// Waiting requests, at most one per core.
    queue: Vec<Pending>,
    /// Core index granted most recently (round-robin pointer).
    last_grant: usize,
    /// Total transactions served.
    served: u64,
    /// Total cycles of queueing delay imposed on requesters.
    queue_delay: u64,
    /// Distribution of per-grant queueing delays, for telemetry.
    delay_hist: obs::Hist,
}

/// The crossbar relative to `now`, as one core's timing future sees it
/// when it is the only core still running (see [`crate::solo`]).
///
/// The round-robin pointers are left out on purpose: with one poster,
/// every queue holds at most that core's request, and each policy
/// grants it whichever core the pointer names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct RelSri {
    /// Cycles until each slave frees (0 once free: a slave that freed
    /// earlier behaves exactly like one freeing now).
    busy_in: [u32; Target::COUNT],
    /// The one queued request: slave index, service, age, class.
    pending: Option<(u8, u32, u32, Operation)>,
    /// `now` modulo each TDMA slave's period (0 for other policies).
    phase: [u32; Target::COUNT],
}

impl RelSri {
    /// The state of the slaves in `mask` only: the others read as free,
    /// with phase 0.
    pub(crate) fn masked(mut self, mask: &[bool; Target::COUNT]) -> RelSri {
        for (i, &keep) in mask.iter().enumerate() {
            if !keep {
                self.busy_in[i] = 0;
                self.phase[i] = 0;
            }
        }
        self
    }
}

/// Completion notice the SRI hands back to a core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// Cycle at which the transaction's data is available.
    pub complete_at: u64,
}

/// The SRI crossbar.
///
/// # Examples
///
/// ```
/// use tc27x_sim::addr::CoreId;
/// use tc27x_sim::{Operation, Target};
/// use tc27x_sim::sri::{Sri, SriRequest};
///
/// let mut sri = Sri::new();
/// sri.post(0, SriRequest {
///     core: CoreId(1),
///     target: Target::Lmu,
///     class: Operation::Data,
///     write: false,
///     service: 11,
/// });
/// let grants = sri.step(0);
/// assert_eq!(grants[CoreId(1).index()].unwrap().complete_at, 11);
/// ```
#[derive(Clone, Debug)]
pub struct Sri {
    slaves: [Slave; Target::COUNT],
    /// Arbitration policy per slave port.
    arbiters: [SlaveArbiter; Target::COUNT],
    /// Priority class per core (higher wins); all-equal by default.
    priority: [u8; CoreId::COUNT],
    /// Opt-in contention attribution ledger ([`crate::attribution`]);
    /// `None` (the default) records nothing and costs nothing.
    attribution: Option<Box<Attribution>>,
}

impl Sri {
    /// Creates an idle crossbar with all masters in the same priority
    /// class (round-robin arbitration).
    pub fn new() -> Self {
        Sri::with_priorities([0; CoreId::COUNT])
    }

    /// Creates a crossbar with explicit per-core priority classes
    /// (higher value = higher priority) and the default
    /// priority-then-round-robin policy on every slave.
    pub fn with_priorities(priority: [u8; CoreId::COUNT]) -> Self {
        Sri::with_arbitration(
            priority,
            [Arbitration::PriorityRoundRobin; Target::COUNT],
            CoreId::COUNT,
        )
    }

    /// Creates a crossbar with an explicit arbitration policy per slave
    /// port; `cores` is the number of active cores (the TDMA schedule
    /// has one slot per active core).
    pub fn with_arbitration(
        priority: [u8; CoreId::COUNT],
        arbitration: [Arbitration; Target::COUNT],
        cores: usize,
    ) -> Self {
        Sri {
            slaves: Default::default(),
            arbiters: std::array::from_fn(|i| SlaveArbiter::from_policy(arbitration[i], cores)),
            priority,
            attribution: None,
        }
    }

    /// Turns on the contention attribution ledger (idempotent; normally
    /// driven by [`crate::config::SimConfig::with_attribution`]). Must
    /// be enabled before the run for conservation to hold — the ledger
    /// only sees grants issued while it exists.
    pub fn enable_attribution(&mut self) {
        if self.attribution.is_none() {
            self.attribution = Some(Box::default());
        }
    }

    /// The attribution ledger, if recording is enabled.
    pub fn attribution(&self) -> Option<&AttributionMatrix> {
        self.attribution.as_ref().map(|a| a.matrix())
    }

    /// Snapshot of the attribution ledger; the all-zero matrix when
    /// recording is off.
    pub fn attribution_matrix(&self) -> AttributionMatrix {
        self.attribution().copied().unwrap_or_default()
    }

    /// The priority class of a core.
    pub fn priority(&self, core: CoreId) -> u8 {
        self.priority[core.index()]
    }

    /// Posts a request at cycle `now`; the posting cycle is recorded so
    /// the grant can attribute the exact queueing delay to the slave
    /// (see [`Sri::queue_delay`]). The grant arrives through a later
    /// (possibly same-cycle) [`Sri::step`].
    ///
    /// # Panics
    ///
    /// Panics if the core already has a request queued at this slave —
    /// cores have at most one outstanding transaction.
    pub fn post(&mut self, now: u64, req: SriRequest) {
        let slave = &mut self.slaves[req.target.index()];
        assert!(
            slave.queue.iter().all(|p| p.core != req.core),
            "{} already has a pending request at {}",
            req.core,
            req.target
        );
        slave.queue.push(Pending {
            core: req.core,
            service: req.service,
            posted_at: now,
            class: req.class,
        });
    }

    /// Advances arbitration at cycle `now`; returns, per core index, the
    /// grant issued this cycle (if any).
    pub fn step(&mut self, now: u64) -> [Option<Grant>; CoreId::COUNT] {
        let mut grants = [None; CoreId::COUNT];
        let priority = self.priority;
        for (idx, (slave, arbiter)) in self.slaves.iter_mut().zip(&self.arbiters).enumerate() {
            if slave.busy_until > now || slave.queue.is_empty() {
                continue;
            }
            let Some(pos) =
                arbiter
                    .as_arbiter()
                    .pick(now, &slave.queue, slave.last_grant, &priority)
            else {
                continue;
            };
            let p = slave.queue.remove(pos);
            let core_idx = p.core.index();
            slave.last_grant = core_idx;
            slave.busy_until = now + p.service as u64;
            slave.served += 1;
            // Exact queueing delay of the granted request, from its
            // recorded posting cycle (not the per-tick waiter count the
            // stepper used to approximate this with).
            slave.queue_delay += now - p.posted_at;
            slave.delay_hist.observe(now - p.posted_at);
            if let Some(attr) = self.attribution.as_deref_mut() {
                // Same grant, same cycle, same inputs on every kernel —
                // the ledger inherits the grant sequence's bit-identity.
                attr.on_grant(idx, &p, now, slave.busy_until, &slave.queue);
            }
            grants[core_idx] = Some(Grant {
                complete_at: slave.busy_until,
            });
        }
        grants
    }

    /// Transactions served by a slave so far.
    pub fn served(&self, target: Target) -> u64 {
        self.slaves[target.index()].served
    }

    /// Total cycles of queueing delay a slave has imposed on granted
    /// requests (grant cycle minus posting cycle, summed).
    pub fn queue_delay(&self, target: Target) -> u64 {
        self.slaves[target.index()].queue_delay
    }

    /// Per-slave statistics snapshot (served count, total and per-grant
    /// queueing delay) for the telemetry layer. Grants are bit-identical
    /// across engines and worker counts, so these are deterministic
    /// telemetry inputs.
    pub fn slave_stats(&self, target: Target) -> crate::counters::SlaveStats {
        let s = &self.slaves[target.index()];
        crate::counters::SlaveStats {
            served: s.served,
            queue_delay: s.queue_delay,
            delay_hist: s.delay_hist.clone(),
        }
    }

    /// Every slave's statistics, indexed like [`Target::all`].
    pub(crate) fn all_slave_stats(&self) -> [crate::counters::SlaveStats; Target::COUNT] {
        std::array::from_fn(|i| self.slave_stats(Target::all()[i]))
    }

    /// Moves the crossbar `shift` cycles into the future as `k` repeats
    /// of the grants made since `earlier` (a past [`Sri::all_slave_stats`])
    /// would: the slaves in `used` that are still busy at `now` stay
    /// busy for as long as before, relative to `now + shift`, and every
    /// served count, delay sum and delay histogram grows by `k` times
    /// its growth since `earlier`. The caller guarantees that no request
    /// is queued, that only the slaves in `used` grant anything, and
    /// that the round-robin pointers already name the only poster.
    pub(crate) fn repeat_since(
        &mut self,
        earlier: &[crate::counters::SlaveStats; Target::COUNT],
        k: u64,
        used: &[bool; Target::COUNT],
        now: u64,
        shift: u64,
    ) {
        debug_assert!(self.slaves.iter().all(|s| s.queue.is_empty()));
        for ((slave, e), &used) in self.slaves.iter_mut().zip(earlier).zip(used) {
            if used && slave.busy_until > now {
                slave.busy_until += shift;
            }
            slave.served += k * (slave.served - e.served);
            slave.queue_delay += k * (slave.queue_delay - e.queue_delay);
            slave.delay_hist.repeat_since(&e.delay_hist, k);
        }
    }

    /// Returns `true` if `core` has a request queued at any slave. The
    /// event kernel's memo path asserts the negation before warping a
    /// core: a core in `Ready`/`Blocked` state never has SRI work in
    /// flight (only `WaitGrant` does), so a memoized block can never
    /// race a grant.
    pub(crate) fn has_pending(&self, core: CoreId) -> bool {
        self.slaves
            .iter()
            .any(|s| s.queue.iter().any(|p| p.core == core))
    }

    /// The crossbar relative to `now` ([`RelSri`]); `None` when a queue
    /// holds a request of a core other than `core`, or a span does not
    /// fit the compact form.
    pub(crate) fn relative(&self, now: u64, core: CoreId) -> Option<RelSri> {
        let mut rel = RelSri {
            busy_in: [0; Target::COUNT],
            pending: None,
            phase: [0; Target::COUNT],
        };
        for (i, (slave, arbiter)) in self.slaves.iter().zip(&self.arbiters).enumerate() {
            rel.busy_in[i] = u32::try_from(slave.busy_until.saturating_sub(now)).ok()?;
            if let Some(period) = arbiter.period() {
                rel.phase[i] = u32::try_from(now % period).ok()?;
            }
            for p in &slave.queue {
                // A core has at most one transaction in flight.
                if p.core != core || rel.pending.is_some() {
                    return None;
                }
                let age = u32::try_from(now - p.posted_at).ok()?;
                rel.pending = Some((i as u8, p.service, age, p.class));
            }
        }
        Some(rel)
    }

    /// Returns `true` if no slave has queued or in-flight work at `now`.
    /// This is the event kernel's quiescence source of truth:
    /// `is_idle(now)` implies [`Sri::next_event`] returns `None`.
    pub fn is_idle(&self, now: u64) -> bool {
        self.slaves
            .iter()
            .all(|s| s.queue.is_empty() && s.busy_until <= now)
    }

    /// Delegates to the [`crate::engine::EventSource`] impl without
    /// needing the trait in scope.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        crate::engine::EventSource::next_event(self, now)
    }
}

impl crate::engine::EventSource for Sri {
    /// The next cycle at which [`Sri::step`] can issue a grant: the
    /// minimum of each slave arbiter's [`Arbiter::next_grant`] claim.
    /// Under round-robin and fixed priority that is the earliest
    /// `busy_until` (clamped to `now`) over slaves with a non-empty
    /// queue; under TDMA it is the next feasible slot start for any
    /// queued request. A busy slave with an *empty* queue needs no
    /// claim — stepping it is a no-op until someone posts, and the
    /// poster's own step precedes arbitration within that cycle. With no
    /// queued work anywhere the arbiter is passive ([`Sri::is_idle`] is
    /// the stronger, kernel-facing form of this).
    fn next_event(&self, now: u64) -> Option<u64> {
        self.slaves
            .iter()
            .zip(&self.arbiters)
            .filter_map(|(s, a)| {
                a.as_arbiter()
                    .next_grant(now, s.busy_until, &s.queue, &self.priority)
            })
            .min()
    }
}

impl Default for Sri {
    fn default() -> Self {
        Sri::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(core: u8, target: Target, service: u32) -> SriRequest {
        SriRequest {
            core: CoreId(core),
            target,
            class: Operation::Data,
            write: false,
            service,
        }
    }

    #[test]
    fn single_request_served_immediately() {
        let mut sri = Sri::new();
        sri.post(5, req(0, Target::Dfl, 43));
        let g = sri.step(5);
        assert_eq!(g[0].unwrap().complete_at, 48);
        assert!(g[1].is_none() && g[2].is_none());
        assert_eq!(sri.served(Target::Dfl), 1);
    }

    #[test]
    fn same_slave_serializes() {
        let mut sri = Sri::new();
        sri.post(0, req(1, Target::Lmu, 11));
        sri.post(0, req(2, Target::Lmu, 11));
        let g0 = sri.step(0);
        // Exactly one granted at cycle 0.
        assert_eq!(g0.iter().flatten().count(), 1);
        // Nothing new until the slave frees up.
        for t in 1..11 {
            assert_eq!(sri.step(t).iter().flatten().count(), 0);
        }
        let g11 = sri.step(11);
        assert_eq!(g11.iter().flatten().count(), 1);
        assert_eq!(g11.iter().flatten().next().unwrap().complete_at, 22);
    }

    #[test]
    fn distinct_slaves_run_in_parallel() {
        let mut sri = Sri::new();
        sri.post(0, req(1, Target::Pf0, 16));
        sri.post(0, req(2, Target::Pf1, 16));
        let g = sri.step(0);
        assert_eq!(g[1].unwrap().complete_at, 16);
        assert_eq!(g[2].unwrap().complete_at, 16);
    }

    #[test]
    fn round_robin_alternates_under_saturation() {
        let mut sri = Sri::new();
        let mut order = Vec::new();
        let mut t = 0u64;
        // Both cores keep a request pending for 6 grant rounds.
        sri.post(t, req(1, Target::Lmu, 11));
        sri.post(t, req(2, Target::Lmu, 11));
        for _ in 0..6 {
            loop {
                let g = sri.step(t);
                if let Some(c) = (0..3).find(|&c| g[c].is_some()) {
                    order.push(c);
                    t = g[c].unwrap().complete_at;
                    // Immediately repost for the granted core.
                    sri.post(t, req(c as u8, Target::Lmu, 11));
                    break;
                }
                t += 1;
            }
        }
        // Strict alternation 1,2,1,2,... or 2,1,2,1,...
        for w in order.windows(2) {
            assert_ne!(w[0], w[1], "round robin must alternate: {order:?}");
        }
    }

    #[test]
    fn three_core_round_robin_is_fair() {
        let mut sri = Sri::new();
        let mut served = [0u32; 3];
        let mut t = 0u64;
        for c in 0..3 {
            sri.post(t, req(c, Target::Pf0, 16));
        }
        for _ in 0..9 {
            loop {
                let g = sri.step(t);
                if let Some(c) = (0..3).find(|&c| g[c].is_some()) {
                    served[c] += 1;
                    t = g[c].unwrap().complete_at;
                    sri.post(t, req(c as u8, Target::Pf0, 16));
                    break;
                }
                t += 1;
            }
        }
        assert_eq!(served, [3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "pending request")]
    fn double_post_same_slave_panics() {
        let mut sri = Sri::new();
        sri.post(0, req(1, Target::Lmu, 11));
        sri.post(0, req(1, Target::Lmu, 11));
    }

    #[test]
    fn priority_class_preempts_round_robin_order() {
        // Core 1 is high priority; it always wins grants over core 2.
        let mut sri = Sri::with_priorities([0, 1, 0]);
        assert_eq!(sri.priority(CoreId(1)), 1);
        let mut wins = [0u32; 3];
        let mut t = 0u64;
        sri.post(t, req(1, Target::Lmu, 11));
        sri.post(t, req(2, Target::Lmu, 11));
        for _ in 0..8 {
            loop {
                let g = sri.step(t);
                if let Some(c) = (0..3).find(|&c| g[c].is_some()) {
                    wins[c] += 1;
                    t = g[c].unwrap().complete_at;
                    sri.post(t, req(c as u8, Target::Lmu, 11));
                    break;
                }
                t += 1;
            }
        }
        // Core 2 gets through only while core 1's repost arrives at the
        // same cycle the slave frees (never strictly first): with this
        // repost pattern core 1 must win at least 7 of 8 grants.
        assert!(
            wins[1] >= 7,
            "high priority starves the low class: {wins:?}"
        );
    }

    #[test]
    fn equal_priorities_remain_fair() {
        let mut sri = Sri::with_priorities([3, 3, 3]);
        let mut served = [0u32; 3];
        let mut t = 0u64;
        for c in 0..3 {
            sri.post(t, req(c, Target::Dfl, 43));
        }
        for _ in 0..6 {
            loop {
                let g = sri.step(t);
                if let Some(c) = (0..3).find(|&c| g[c].is_some()) {
                    served[c] += 1;
                    t = g[c].unwrap().complete_at;
                    sri.post(t, req(c as u8, Target::Dfl, 43));
                    break;
                }
                t += 1;
            }
        }
        assert_eq!(served, [2, 2, 2]);
    }

    #[test]
    fn idle_detection() {
        let mut sri = Sri::new();
        assert!(sri.is_idle(0));
        sri.post(0, req(0, Target::Lmu, 11));
        assert!(!sri.is_idle(0));
        sri.step(0);
        assert!(!sri.is_idle(5));
        assert!(sri.is_idle(11));
    }

    #[test]
    fn idle_implies_no_claim() {
        let mut sri = Sri::new();
        // Fresh crossbar: idle, passive.
        assert!(sri.is_idle(0));
        assert_eq!(sri.next_event(0), None);
        // Queued request on a free slave: claim fires immediately.
        sri.post(3, req(1, Target::Lmu, 11));
        assert_eq!(sri.next_event(3), Some(3));
        sri.step(3);
        // Busy slave, empty queue: no claim, yet not idle — stepping it
        // is a no-op until someone posts.
        assert!(!sri.is_idle(7));
        assert_eq!(sri.next_event(7), None);
        // Busy slave with a waiter: claim at the freeing cycle.
        sri.post(7, req(2, Target::Lmu, 11));
        assert_eq!(sri.next_event(7), Some(14));
        // Whenever the crossbar is idle, it must also be passive.
        for t in [14, 25, 1000] {
            sri.step(t);
            assert!(sri.is_idle(t + 11));
            assert_eq!(sri.next_event(t + 11), None);
        }
    }

    fn tdma_sri(slot_len: u32, cores: usize) -> Sri {
        Sri::with_arbitration(
            [0; CoreId::COUNT],
            [Arbitration::Tdma { slot_len }; Target::COUNT],
            cores,
        )
    }

    #[test]
    fn fixed_priority_always_prefers_the_higher_class() {
        let mut sri = Sri::with_arbitration(
            [0, 2, 1],
            [Arbitration::FixedPriority; Target::COUNT],
            CoreId::COUNT,
        );
        // All three queued on a free slave: core 1 (class 2) wins, then
        // core 2 (class 1), then core 0 — never round-robin rotation.
        for c in 0..3 {
            sri.post(0, req(c, Target::Lmu, 11));
        }
        let g = sri.step(0);
        assert!(g[1].is_some() && g[0].is_none() && g[2].is_none());
        let g = sri.step(11);
        assert!(g[2].is_some() && g[0].is_none());
        let g = sri.step(22);
        assert!(g[0].is_some());
    }

    #[test]
    fn fixed_priority_breaks_ties_by_core_index() {
        let mut sri = Sri::with_arbitration(
            [1, 1, 0],
            [Arbitration::FixedPriority; Target::COUNT],
            CoreId::COUNT,
        );
        sri.post(0, req(1, Target::Lmu, 11));
        sri.post(0, req(0, Target::Lmu, 11));
        let g = sri.step(0);
        assert!(g[0].is_some() && g[1].is_none(), "lower index wins ties");
    }

    #[test]
    fn tdma_grants_only_in_the_owners_slot() {
        // Slots of 16: [0,16) core0, [16,32) core1, [32,48) core2.
        let mut sri = tdma_sri(16, 3);
        sri.post(0, req(1, Target::Pf0, 16));
        // Core 1's slot starts at 16 — nothing before that.
        for t in 0..16 {
            assert_eq!(sri.step(t).iter().flatten().count(), 0, "t={t}");
        }
        assert_eq!(sri.next_event(0), Some(16));
        let g = sri.step(16);
        assert_eq!(g[1].unwrap().complete_at, 32);
    }

    #[test]
    fn tdma_grant_must_fit_the_slot_remainder() {
        let mut sri = tdma_sri(16, 3);
        // Posted 10 cycles into core 0's own slot: a 16-cycle service no
        // longer fits (6 cycles remain), so it waits a full period.
        sri.post(10, req(0, Target::Pf0, 16));
        assert_eq!(sri.next_event(10), Some(48));
        for t in 10..48 {
            assert_eq!(sri.step(t).iter().flatten().count(), 0, "t={t}");
        }
        let g = sri.step(48);
        assert_eq!(g[0].unwrap().complete_at, 64);
        // A shorter service fits the same remainder immediately.
        let mut sri = tdma_sri(16, 3);
        sri.post(10, req(0, Target::Pf0, 6));
        assert_eq!(sri.next_event(10), Some(10));
        assert_eq!(sri.step(10)[0].unwrap().complete_at, 16);
    }

    #[test]
    fn tdma_contenders_cannot_delay_a_grant() {
        // Core 1 posts at its slot start; core 0 and 2 flooding the
        // same slave never move core 1's grant cycle.
        let grant_cycle = |with_contenders: bool| {
            let mut sri = tdma_sri(16, 3);
            if with_contenders {
                sri.post(0, req(0, Target::Pf0, 16));
                sri.post(0, req(2, Target::Pf0, 16));
            }
            sri.post(5, req(1, Target::Pf0, 16));
            let mut t = 5;
            loop {
                if let Some(g) = sri.step(t)[1] {
                    return (t, g.complete_at);
                }
                t += 1;
            }
        };
        assert_eq!(grant_cycle(false), grant_cycle(true));
    }

    #[test]
    fn tdma_claims_are_exact() {
        // Whatever the posting phase, the claimed cycle is the first
        // cycle at which step() actually grants.
        for phase in 0..48u64 {
            let mut sri = tdma_sri(16, 3);
            sri.post(phase, req(2, Target::Lmu, 11));
            let claim = sri.next_event(phase).unwrap();
            for t in phase..claim {
                assert_eq!(sri.step(t).iter().flatten().count(), 0, "phase={phase}");
            }
            assert!(
                sri.step(claim)[2].is_some(),
                "claim {claim} must grant (phase {phase})"
            );
        }
    }

    #[test]
    fn queue_delay_is_grant_minus_post() {
        let mut sri = Sri::new();
        sri.post(0, req(1, Target::Lmu, 11));
        sri.post(0, req(2, Target::Lmu, 11));
        let g0 = sri.step(0);
        assert_eq!(g0.iter().flatten().count(), 1);
        // First grant came at its posting cycle: zero delay.
        assert_eq!(sri.queue_delay(Target::Lmu), 0);
        // Second request waits out the 11-cycle service window.
        let g11 = sri.step(11);
        assert_eq!(g11.iter().flatten().count(), 1);
        assert_eq!(sri.queue_delay(Target::Lmu), 11);
        // Other slaves were never touched.
        assert_eq!(sri.queue_delay(Target::Pf0), 0);
        // The per-grant histogram agrees with the aggregate counters.
        let stats = sri.slave_stats(Target::Lmu);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.queue_delay, 11);
        assert_eq!(stats.delay_hist.count(), 2);
        assert_eq!(stats.delay_hist.sum(), 11);
        assert_eq!(stats.delay_hist.max(), Some(11));
        assert!(sri.slave_stats(Target::Pf0).delay_hist.is_empty());
    }

    #[test]
    fn attribution_is_off_by_default_and_charges_the_occupant_when_on() {
        let mut sri = Sri::new();
        sri.post(0, req(1, Target::Lmu, 11));
        sri.post(0, req(2, Target::Lmu, 11));
        sri.step(0);
        sri.step(11);
        assert!(sri.attribution().is_none());
        assert!(sri.attribution_matrix().is_zero());

        let mut sri = Sri::new();
        sri.enable_attribution();
        sri.post(0, req(1, Target::Lmu, 11));
        sri.post(0, req(2, Target::Lmu, 11));
        sri.step(0);
        sri.step(11);
        let m = sri.attribution().unwrap();
        // Core 2 waited out core 1's full service; every wait cycle is
        // blamed on core 1, none on the schedule.
        assert_eq!(m.wait_cycles(Target::Lmu, CoreId(2), CoreId(1)), 11);
        assert_eq!(m.schedule_wait(Target::Lmu, CoreId(2)), 0);
        assert_eq!(
            m.slave_wait(Target::Lmu),
            sri.queue_delay(Target::Lmu),
            "attributed cycles must sum to the slave's queue_delay"
        );
        assert_eq!(m.max_wait(Target::Lmu, CoreId(2)), 11);
        assert_eq!(m.class_wait(Target::Lmu, CoreId(2), Operation::Data), 11);
    }

    #[test]
    fn attribution_charges_tdma_alignment_to_the_schedule_column() {
        let mut sri = tdma_sri(16, 3);
        sri.enable_attribution();
        // Core 1 posts at cycle 0 into core 0's slot; its own slot
        // starts at 16. Nobody occupies the slave meanwhile.
        sri.post(0, req(1, Target::Pf0, 16));
        for t in 0..=16 {
            sri.step(t);
        }
        let m = sri.attribution().unwrap();
        assert_eq!(m.schedule_wait(Target::Pf0, CoreId(1)), 16);
        assert_eq!(m.wait_cycles(Target::Pf0, CoreId(1), CoreId(0)), 0);
        assert_eq!(m.slave_wait(Target::Pf0), sri.queue_delay(Target::Pf0));
    }
}
