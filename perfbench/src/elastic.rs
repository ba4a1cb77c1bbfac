//! `elastic-slo`: two closed-loop clients share one in-process executor
//! with 2 compute slots. Each query is planned at DOP 1 and runs with
//! `ElasticityConfig::auto(deadline)`, so the what-if predictor, the
//! retunes at split boundaries, fleet arbitration and admission all act.

use std::sync::Arc;
use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_common::config::ElasticityConfig;
use accordion_storage::catalog::Catalog;

use crate::check::check_result;
use crate::seq::{Arrival, Class};
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    exec_options, execute, plan, with_timeout, Ctx, Digest, Exchange, Outcome, Rig, Sample,
    QUERY_TIMEOUT,
};

const SLOTS: usize = 2;
const DOP: u32 = 1;

pub struct ElasticSlo {
    catalog: Arc<Catalog>,
    executor: QueryExecutor,
}

impl Rig for ElasticSlo {
    type Session = ();
    const CLIENTS: usize = 2;

    fn start(catalog: Arc<Catalog>) -> Result<(Self, Vec<()>), String> {
        let executor = QueryExecutor::new(exec_options(SLOTS));
        Ok((ElasticSlo { catalog, executor }, vec![(); Self::CLIENTS]))
    }

    fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    fn executor(&self) -> Option<&QueryExecutor> {
        Some(&self.executor)
    }

    fn run(&self, _: &mut (), arrival: Arrival, query: u64, ctx: &Ctx) -> Sample {
        let deadline_ms = arrival.deadline_ms();
        let mut sample = Sample::new(query, arrival, deadline_ms);
        let (catalog, executor, ctx) = (self.catalog.clone(), self.executor.clone(), ctx.clone());
        let run = move || {
            let kind = arrival.kind;
            let tracer = &ctx.tracer;
            let root = tracer.open("query", query, SpanId::NONE);
            let started = Instant::now();
            let mut opts = executor.options().clone();
            opts.elasticity = ElasticityConfig::auto(deadline_ms);
            let outcome = (|| {
                let tree = plan(&catalog, kind.sql(), DOP, query, root, tracer)
                    .map_err(|e| Outcome::Failed(e.to_string()))?;
                let (result, execute_ms) =
                    execute(&executor, &catalog, &tree, &opts, query, root, tracer)
                        .map_err(|e| Outcome::Failed(e.to_string()))?;
                tracer
                    .span("check", query, root, || {
                        check_result(ctx.reference.get(kind), &result)
                    })
                    .map_err(Outcome::Wrong)?;
                let stats = result.stats();
                Ok((Digest::of(&tree, stats), Exchange::of(stats), execute_ms))
            })();
            let latency_ms = started.elapsed().as_secs_f64() * 1e3;
            tracer.close(root);
            (latency_ms, outcome)
        };
        match with_timeout(QUERY_TIMEOUT, run) {
            Ok((latency_ms, outcome)) => {
                sample.latency_ms = latency_ms;
                match outcome {
                    Ok((digest, exchange, execute_ms)) => {
                        sample.outcome = Outcome::Ok;
                        sample.digest = Some(digest);
                        sample.exchange = Some(exchange);
                        sample.execute_ms = Some(execute_ms);
                    }
                    Err(outcome) => sample.outcome = outcome,
                }
            }
            Err(e) => {
                sample.latency_ms = QUERY_TIMEOUT.as_secs_f64() * 1e3;
                sample.outcome = Outcome::Failed(e);
            }
        }
        sample
    }

    /// Idle controller cost: a loose query the controller never retuned
    /// runs again, alone, once under `auto` with its deadline and once with
    /// `off` at the same DOP. A pair whose `auto` run retunes is dropped.
    fn replay(&self, sample: &mut Sample, ctx: &Ctx) {
        let retuned = sample.digest.is_none_or(|d| d.retunes > 0);
        if sample.arrival.class != Class::Loose || retuned {
            return;
        }
        let (catalog, executor, ctx) = (self.catalog.clone(), self.executor.clone(), ctx.clone());
        let (kind, query, deadline_ms) = (sample.arrival.kind, sample.query, sample.deadline_ms);
        let pair = move || -> Result<(), Outcome> {
            let tracer = &ctx.tracer;
            let tree = plan(
                &catalog,
                kind.sql(),
                DOP,
                query,
                SpanId::NONE,
                &Tracer::new(false),
            )
            .map_err(|e| Outcome::Failed(e.to_string()))?;
            let mut auto = executor.options().clone();
            auto.elasticity = ElasticityConfig::auto(deadline_ms);
            for (span, opts) in [("idle.auto", &auto), ("idle.off", executor.options())] {
                let result = tracer
                    .span(span, query, SpanId::NONE, || {
                        executor.execute_tree_opts(&catalog, &tree, opts)
                    })
                    .map_err(|e| Outcome::Failed(format!("idle replay: {e}")))?;
                check_result(ctx.reference.get(kind), &result).map_err(Outcome::Wrong)?;
                if !result.stats().retunes.is_empty() {
                    break;
                }
            }
            Ok(())
        };
        match with_timeout(QUERY_TIMEOUT, pair) {
            Ok(Ok(())) => {}
            Ok(Err(outcome)) => sample.outcome = outcome,
            Err(e) => sample.outcome = Outcome::Failed(format!("idle replay {e}")),
        }
    }
}
