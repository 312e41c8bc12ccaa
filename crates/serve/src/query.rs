//! The compute plane: turns a validated [`Request`] into a canonical
//! response body.
//!
//! A response body is a **pure function of the request's semantic
//! fields** — it never mentions the caller's `id`/`tenant`, wall-clock
//! time or worker count. That purity is what the crash-recovery store
//! keys on: the same request replayed after a `kill -9` (at any
//! `--jobs N`) re-derives or re-serves the same bytes.
//!
//! Deadline-driven degradation lives here too. A request's `budget`
//! caps the ILP's branch-and-bound node count — the solver's
//! deterministic logical clock — and when it runs out the
//! [`contention::Evaluator`] ladder degrades to the warm fTC bound.
//! Every body carries a `provenance` tag (`ilp` / `fallback=ftc`), so
//! a degraded answer is visible to the caller, never silent.

use crate::proto::{QueryKind, Request};
use contention::rta::{self, PeriodicTask};
use contention::{
    ContentionModel, EvalOptions, Evaluator, FtcModel, Platform, ValidationPolicy, Validator,
    WcetEstimate,
};
use mbta::{constraints_for, ExecEngine, Recipe};
use obs::json::Val;
use tc27x_sim::{CoreId, DeploymentScenario};
use workloads::LoadLevel;

/// Tuning knobs for the compute plane.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// ILP node budget applied when a request does not carry one
    /// (`None` keeps the scenario default).
    pub default_budget: Option<u64>,
}

/// One computed answer: the canonical body plus what the server
/// should count.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Canonical `{"status":"ok",…}` JSON body (identity-free).
    pub body: String,
    /// `true` when the bound came from the fTC fallback.
    pub fallback: bool,
    /// `true` when an input profile needed repair.
    pub repaired: bool,
}

/// The app and contender profiles of one query.
type Pair = (contention::IsolationProfile, contention::IsolationProfile);

/// Stateless query evaluator over a shared [`ExecEngine`].
pub struct QueryEngine<'e> {
    engine: &'e ExecEngine,
    platform: Platform,
    options: QueryOptions,
}

impl<'e> QueryEngine<'e> {
    /// Creates a query engine over `engine`; the model tables are
    /// derived from the platform description the engine simulates
    /// (the paper's TC277 by default).
    pub fn new(engine: &'e ExecEngine, options: QueryOptions) -> QueryEngine<'e> {
        QueryEngine {
            platform: Platform::from_desc(engine.platform()),
            engine,
            options,
        }
    }

    /// Computes the canonical answer for `req`.
    ///
    /// # Errors
    ///
    /// A human-readable message; the server wraps it in an `error`
    /// response (errors are not stored).
    pub fn answer(&self, req: &Request) -> Result<Answer, String> {
        match &req.kind {
            QueryKind::Ping => Ok(Answer {
                body: Val::Obj(vec![
                    ("status".to_string(), Val::str("ok")),
                    ("kind".to_string(), Val::str("ping")),
                ])
                .to_json(),
                fallback: false,
                repaired: false,
            }),
            QueryKind::Stats | QueryKind::Shutdown => {
                Err(format!("`{}` is control-plane only", req.kind.token()))
            }
            QueryKind::Bound { scenario, level } => self.bound_body(req, *scenario, *level, None),
            QueryKind::Rta {
                scenario,
                level,
                period,
                deadline,
            } => self.bound_body(req, *scenario, *level, Some((*period, *deadline))),
            QueryKind::Sweep { scenario, level } => self.sweep_body(req, *scenario, *level),
        }
    }

    fn policy(req: &Request) -> ValidationPolicy {
        if req.strict {
            ValidationPolicy::Strict
        } else {
            ValidationPolicy::Repair
        }
    }

    fn eval_options(&self, req: &Request, scenario: DeploymentScenario) -> EvalOptions {
        let mut options = EvalOptions::for_scenario(constraints_for(scenario));
        options.policy = Self::policy(req);
        if let Some(budget) = req.budget.or(self.options.default_budget) {
            options.ilp.node_budget = budget;
        }
        options
    }

    /// The recipes of the app and contender tasks every data-plane
    /// query runs, on the engine's cores.
    fn recipes(&self, scenario: DeploymentScenario, level: LoadLevel) -> [Recipe; 2] {
        let desc = self.engine.platform();
        [
            Recipe::ControlLoop {
                scenario,
                core: CoreId(desc.app_core as u8),
                seed: 42,
            },
            Recipe::Contender {
                scenario,
                level,
                core: CoreId(desc.load_core as u8),
                seed: 7,
            },
        ]
    }

    /// The two isolation profiles every data-plane query needs. A
    /// repeat pair comes straight from the engine's recipe aliases: no
    /// spec is built or hashed.
    fn isolation_pair(
        &self,
        scenario: DeploymentScenario,
        level: LoadLevel,
    ) -> Result<Pair, String> {
        let [app_recipe, load_recipe] = self.recipes(scenario, level);
        let (_, app) = self
            .engine
            .isolation_by_recipe(app_recipe)
            .map_err(|e| format!("app isolation failed: {e}"))?;
        let (_, load) = self
            .engine
            .isolation_by_recipe(load_recipe)
            .map_err(|e| format!("contender isolation failed: {e}"))?;
        Ok((app, load))
    }

    fn bound_body(
        &self,
        req: &Request,
        scenario: DeploymentScenario,
        level: LoadLevel,
        rta_params: Option<(u64, u64)>,
    ) -> Result<Answer, String> {
        let (app, load) = self.isolation_pair(scenario, level)?;
        let evaluated = Evaluator::new(&self.platform, self.eval_options(req, scenario))
            .bound(&app, &load)
            .map_err(|e| format!("evaluation failed: {e}"))?;
        let est = WcetEstimate {
            isolation_cycles: app.counters().ccnt,
            contention_cycles: evaluated.bound.delta_cycles,
        };
        let mut pairs = vec![
            ("status".to_string(), Val::str("ok")),
            (
                "kind".to_string(),
                Val::str(if rta_params.is_some() { "rta" } else { "bound" }),
            ),
            ("scenario".to_string(), Val::str(scenario.token())),
            ("level".to_string(), Val::str(level.token())),
            (
                "isolation_cycles".to_string(),
                Val::U64(est.isolation_cycles),
            ),
            ("delta_cycles".to_string(), Val::U64(est.contention_cycles)),
            ("bound_cycles".to_string(), Val::U64(est.bound_cycles())),
            ("ratio".to_string(), Val::F64(est.ratio())),
            ("provenance".to_string(), Val::str(evaluated.source.tag())),
            (
                "nodes_explored".to_string(),
                Val::U64(evaluated.nodes_explored),
            ),
            ("repaired".to_string(), Val::Bool(evaluated.any_repairs())),
        ];
        if let Some((period, deadline)) = rta_params {
            // Constrained deadlines are analysed conservatively by
            // running the implicit-deadline recurrence with T =
            // deadline; utilisation is still reported against the true
            // period.
            let task = PeriodicTask::from_estimate("served-task", deadline, &est);
            let verdict = rta::analyze(std::slice::from_ref(&task));
            let response = verdict.tasks.first().and_then(|r| r.response);
            pairs.push(("period".to_string(), Val::U64(period)));
            pairs.push(("deadline".to_string(), Val::U64(deadline)));
            pairs.push((
                "schedulable".to_string(),
                Val::Bool(verdict.is_schedulable()),
            ));
            pairs.push((
                "response_cycles".to_string(),
                response.map_or(Val::str("-"), Val::U64),
            ));
            pairs.push((
                "slack_cycles".to_string(),
                Val::U64(response.map_or(0, |r| deadline.saturating_sub(r))),
            ));
            pairs.push((
                "utilization".to_string(),
                Val::F64(est.bound_cycles() as f64 / period as f64),
            ));
        }
        Ok(Answer {
            body: Val::Obj(pairs).to_json(),
            fallback: evaluated.source.is_fallback(),
            repaired: evaluated.any_repairs(),
        })
    }

    fn sweep_body(
        &self,
        req: &Request,
        scenario: DeploymentScenario,
        level: LoadLevel,
    ) -> Result<Answer, String> {
        let (app, load) = self.isolation_pair(scenario, level)?;
        let evaluated = Evaluator::new(&self.platform, self.eval_options(req, scenario))
            .bound(&app, &load)
            .map_err(|e| format!("evaluation failed: {e}"))?;
        let validator = Validator::new(&self.platform, Self::policy(req));
        let (va, ra) = validator
            .apply(&app)
            .map_err(|e| format!("app validation failed: {e}"))?;
        let (vb, rb) = validator
            .apply(&load)
            .map_err(|e| format!("contender validation failed: {e}"))?;
        let ftc = FtcModel::new(&self.platform)
            .wcet_estimate(&va, &[&vb])
            .map_err(|e| format!("fTC model failed: {e}"))?;
        let [app_recipe, load_recipe] = self.recipes(scenario, level);
        let observed = self
            .engine
            .corun_by_recipe(app_recipe, load_recipe)
            .map_err(|e| format!("co-run failed: {e}"))?;
        let iso = app.counters().ccnt;
        let bound = iso + evaluated.bound.delta_cycles;
        let body = Val::Obj(vec![
            ("status".to_string(), Val::str("ok")),
            ("kind".to_string(), Val::str("sweep")),
            ("scenario".to_string(), Val::str(scenario.token())),
            ("level".to_string(), Val::str(level.token())),
            ("isolation_cycles".to_string(), Val::U64(iso)),
            ("observed_cycles".to_string(), Val::U64(observed)),
            ("ftc_ratio".to_string(), Val::F64(ftc.ratio())),
            ("ilp_ratio".to_string(), Val::F64(bound as f64 / iso as f64)),
            (
                "observed_ratio".to_string(),
                Val::F64(observed as f64 / iso as f64),
            ),
            ("sound".to_string(), Val::Bool(bound >= observed)),
            ("provenance".to_string(), Val::str(evaluated.source.tag())),
            (
                "repaired".to_string(),
                Val::Bool(ra.repaired || rb.repaired || evaluated.any_repairs()),
            ),
        ])
        .to_json();
        Ok(Answer {
            body,
            fallback: evaluated.source.is_fallback(),
            repaired: ra.repaired || rb.repaired || evaluated.any_repairs(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use mbta::SimJob;

    fn engine() -> ExecEngine {
        ExecEngine::new(2)
    }

    fn req(kind: QueryKind, budget: Option<u64>) -> Request {
        Request {
            id: "t".to_string(),
            tenant: "t".to_string(),
            kind,
            budget,
            strict: false,
        }
    }

    #[test]
    fn bound_body_is_identity_free_and_deterministic() {
        let e1 = engine();
        let e2 = ExecEngine::new(4);
        let r = req(
            QueryKind::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
            },
            None,
        );
        let a = QueryEngine::new(&e1, QueryOptions::default())
            .answer(&r)
            .unwrap();
        let b = QueryEngine::new(&e2, QueryOptions::default())
            .answer(&r)
            .unwrap();
        assert_eq!(a.body, b.body, "body must not depend on worker count");
        assert!(a.body.starts_with("{\"status\":\"ok\""));
        assert!(!a.body.contains("tenant"));
        assert_eq!(e1.cached_profiles(), 2, "the app and the contender");
    }

    #[test]
    fn tiny_budget_degrades_with_visible_provenance() {
        let e = engine();
        let r = req(
            QueryKind::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
            },
            Some(1),
        );
        let a = QueryEngine::new(&e, QueryOptions::default())
            .answer(&r)
            .unwrap();
        assert!(a.fallback, "node budget 1 must exhaust the ILP");
        assert!(a.body.contains("\"provenance\":\"fallback=ftc\""));
    }

    #[test]
    fn rta_body_reports_schedulability() {
        let e = engine();
        let probe = QueryEngine::new(&e, QueryOptions::default())
            .answer(&req(
                QueryKind::Bound {
                    scenario: DeploymentScenario::LowTraffic,
                    level: LoadLevel::Low,
                },
                None,
            ))
            .unwrap();
        // Pull bound_cycles out of the probe body to build one
        // schedulable and one unschedulable period.
        let doc = obs::json::parse(&probe.body).unwrap();
        let bound = doc.get("bound_cycles").and_then(|v| v.as_u64()).unwrap();
        let sched = QueryEngine::new(&e, QueryOptions::default())
            .answer(&req(
                QueryKind::Rta {
                    scenario: DeploymentScenario::LowTraffic,
                    level: LoadLevel::Low,
                    period: bound * 2,
                    deadline: bound * 2,
                },
                None,
            ))
            .unwrap();
        assert!(sched.body.contains("\"schedulable\":true"));
        let miss = QueryEngine::new(&e, QueryOptions::default())
            .answer(&req(
                QueryKind::Rta {
                    scenario: DeploymentScenario::LowTraffic,
                    level: LoadLevel::Low,
                    period: bound - 1,
                    deadline: bound - 1,
                },
                None,
            ))
            .unwrap();
        assert!(miss.body.contains("\"schedulable\":false"));
    }

    #[test]
    fn repeat_bounds_hash_no_spec_and_survive_clear_cache() {
        let e = engine();
        // The profile store the daemon attaches, in a scratch file.
        let path = std::env::temp_dir().join(format!("serve-query-{}.store", std::process::id()));
        e.attach_store(mbta::Store::create(&path, "profiles", 0).unwrap());
        let stored = || {
            let (_, records, report) = mbta::Store::open(&path, "profiles", 0).unwrap();
            (records.into_keys().collect::<Vec<u64>>(), report.records)
        };
        let qe = QueryEngine::new(&e, QueryOptions::default());
        let rta = |period| {
            req(
                QueryKind::Rta {
                    scenario: DeploymentScenario::LowTraffic,
                    level: LoadLevel::Low,
                    period,
                    deadline: period,
                },
                None,
            )
        };
        let first = qe.answer(&rta(50_000_000)).unwrap();
        assert_eq!(e.report().spec_hashes, 2, "one hash per spec");

        // Repeats, and fresh periods over the same pair, hash nothing.
        let repeat = qe.answer(&rta(50_000_000)).unwrap();
        assert_eq!(repeat.body, first.body);
        assert_eq!(e.report().simulations_run, 2, "the same profiles");
        qe.answer(&req(
            QueryKind::Bound {
                scenario: DeploymentScenario::LowTraffic,
                level: LoadLevel::Low,
            },
            None,
        ))
        .unwrap();
        assert_eq!(e.report().simulations_run, 2, "the same profiles");
        qe.answer(&rta(60_000_000)).unwrap();
        assert_eq!(e.report().spec_hashes, 2);

        // The keys are the ones the profile store has always used.
        let desc = e.platform();
        let (app_core, load_core) = (CoreId(desc.app_core as u8), CoreId(desc.load_core as u8));
        let expected = [
            SimJob::Isolation {
                spec: workloads::control_loop_on(
                    desc,
                    DeploymentScenario::LowTraffic,
                    app_core,
                    42,
                ),
                core: app_core,
            },
            SimJob::Isolation {
                spec: workloads::contender_on(
                    desc,
                    DeploymentScenario::LowTraffic,
                    LoadLevel::Low,
                    load_core,
                    7,
                ),
                core: load_core,
            },
        ]
        .map(|job| mbta::job_key_on(&job, desc));
        let mut expected = expected.to_vec();
        expected.sort_unstable();
        assert_eq!(stored(), (expected.clone(), 2));

        // After clear_cache the pair is rebuilt, re-keyed and re-run.
        e.clear_cache();
        let cleared = qe.answer(&rta(50_000_000)).unwrap();
        assert_eq!(cleared.body, first.body);
        assert_eq!(stored(), (expected, 4), "re-run under the same keys");
        assert_eq!(e.report().spec_hashes, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_body_is_sound() {
        let e = engine();
        let a = QueryEngine::new(&e, QueryOptions::default())
            .answer(&req(
                QueryKind::Sweep {
                    scenario: DeploymentScenario::LowTraffic,
                    level: LoadLevel::Low,
                },
                None,
            ))
            .unwrap();
        assert!(a.body.contains("\"sound\":true"));
        assert!(a.body.contains("\"observed_ratio\":"));
    }

    #[test]
    fn repeat_sweeps_simulate_nothing_and_answer_identically() {
        let e = engine();
        let qe = QueryEngine::new(&e, QueryOptions::default());
        let sweep = |budget| {
            req(
                QueryKind::Sweep {
                    scenario: DeploymentScenario::LowTraffic,
                    level: LoadLevel::Low,
                },
                budget,
            )
        };
        let first = qe.answer(&sweep(None)).unwrap();
        let runs = e.report().simulations_run;
        assert_eq!(runs, 3, "two isolations and the co-run");

        // A fresh budget makes a fresh request, not a fresh co-run.
        for budget in [None, Some(64), Some(4096)] {
            let again = qe.answer(&sweep(budget)).unwrap();
            assert_eq!(e.cached_profiles(), 2, "the same profiles");
            if budget.is_none() {
                assert_eq!(again.body, first.body);
            }
        }
        assert_eq!(e.report().simulations_run, runs);

        // The body is the one a fresh engine computes.
        let fresh = engine();
        let reference = QueryEngine::new(&fresh, QueryOptions::default())
            .answer(&sweep(None))
            .unwrap();
        assert_eq!(reference.body, first.body);

        // After clear_cache the co-run simulates again, same answer.
        e.clear_cache();
        assert_eq!(qe.answer(&sweep(None)).unwrap().body, first.body);
        assert_eq!(e.report().simulations_run, 2 * runs);
    }
}
