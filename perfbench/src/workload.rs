//! What the three workloads share: the per-query sample, the bounded query
//! runner, the traced planning path, and the closed loop that drives a rig.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accordion_cluster::QueryExecutor;
use accordion_common::config::{AdmissionConfig, ElasticityConfig};
use accordion_common::{AccordionError, Result as EngineResult};
use accordion_exec::metrics::QueryStats;
use accordion_exec::{ExecOptions, QueryResult};
use accordion_plan::fragment::StageTree;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_sql::{parse_one, Analyzer, Statement};
use accordion_storage::catalog::Catalog;

use crate::check::{check_result, Reference};
use crate::seq::{Arrival, Arrivals, Class, Kind};
use crate::trace::{SpanId, Tracer};

/// Every query, probe and replay is abandoned after this long and counted
/// as failed: several times the slowest query of any workload under load.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(3);

/// How one query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// Errored, timed out or was rejected.
    Failed(String),
    /// Returned rows that differ from the reference.
    Wrong(String),
}

/// Plan and operator counters of one whole query, from its stage tree and
/// its `QueryStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Digest {
    pub stages: usize,
    pub scan_rows: u64,
    pub probe_rows: u64,
    /// Rows produced by all operators together.
    pub operator_rows: u64,
    pub retunes: usize,
    /// Retunes that raised the DOP.
    pub grows: usize,
}

impl Digest {
    pub fn of(tree: &StageTree, stats: &QueryStats) -> Digest {
        Digest {
            stages: tree.fragments().len(),
            scan_rows: stats.rows_produced("TableScan"),
            probe_rows: stats.rows_produced("HashJoinProbe"),
            operator_rows: stats.operators.iter().map(|o| o.rows).sum(),
            retunes: stats.retunes.len(),
            grows: stats
                .retunes
                .iter()
                .filter(|r| r.to_dop > r.from_dop)
                .count(),
        }
    }
}

/// Exchange counters of one query's `QueryStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Exchange {
    pub pages: u64,
    pub bytes: u64,
    pub grow_events: u64,
}

impl Exchange {
    pub fn of(stats: &QueryStats) -> Exchange {
        Exchange {
            pages: stats.exchange.pages,
            bytes: stats.exchange.bytes,
            grow_events: stats.exchange.grow_events,
        }
    }
}

/// One attempted query of a timed window.
#[derive(Debug, Clone)]
pub struct Sample {
    pub query: u64,
    pub arrival: Arrival,
    /// The latency target this query is scored against.
    pub deadline_ms: u64,
    /// From sending the SQL text until all rows are received and checked.
    pub latency_ms: f64,
    pub outcome: Outcome,
    /// Plan and operator counters of the query, or of its in-process
    /// replay when the whole query ran out of reach (behind the query
    /// server, or partly on another node).
    pub digest: Option<Digest>,
    /// Exchange counters, from the same run as `digest`; on a fleet, the
    /// coordinator's own exchanges in the timed query.
    pub exchange: Option<Exchange>,
    /// Time the engine spent running the query, as `cluster.execute_ms`
    /// reads it: `execute_tree_opts` in-process or in the replay, or
    /// `DistributedRun::elapsed_ms` for a fleet.
    pub execute_ms: Option<f64>,
    /// `ResultSet::elapsed_ms` as the query server reported it.
    pub server_ms: Option<f64>,
    /// `DistributedRun::remote_slots`.
    pub remote_slots: Option<usize>,
}

impl Sample {
    pub fn new(query: u64, arrival: Arrival, deadline_ms: u64) -> Sample {
        Sample {
            query,
            arrival,
            deadline_ms,
            latency_ms: 0.0,
            outcome: Outcome::Failed("not run".into()),
            digest: None,
            exchange: None,
            execute_ms: None,
            server_ms: None,
            remote_slots: None,
        }
    }

    pub fn ok(&self) -> bool {
        self.outcome == Outcome::Ok
    }

    /// Finished, correct, within its deadline.
    pub fn met_deadline(&self) -> bool {
        self.ok() && self.latency_ms <= self.deadline_ms as f64
    }
}

/// One query of the saturation probe.
#[derive(Debug, Clone)]
pub struct Probe {
    pub kind: Kind,
    pub outcome: Outcome,
    pub timed_out: bool,
}

/// What every query of a run needs besides its rig. Cloning shares it.
#[derive(Clone)]
pub struct Ctx {
    pub reference: Arc<Reference>,
    pub tracer: Tracer,
}

/// A workload's running system: how to start it, and how one client sends
/// one query through it.
pub trait Rig: Sync + Sized {
    /// Per-client state, such as a connection.
    type Session: Send;
    /// Closed-loop clients.
    const CLIENTS: usize;
    /// Whether the traced run also times the page wire codec.
    const MEASURES_WIRE: bool = false;

    /// Starts the system on a generated catalog, up to the point where the
    /// first query can be sent. Returns one session per client.
    fn start(catalog: Arc<Catalog>) -> Result<(Self, Vec<Self::Session>), String>;

    fn catalog(&self) -> &Arc<Catalog>;

    /// The shared executor whose admission gate and fleet arbiter the
    /// queries pass through, when the benchmark can reach it.
    fn executor(&self) -> Option<&QueryExecutor> {
        None
    }

    /// Sends one query and returns its sample. Never blocks for much longer
    /// than [`QUERY_TIMEOUT`].
    fn run(&self, session: &mut Self::Session, arrival: Arrival, query: u64, ctx: &Ctx) -> Sample;

    /// Traced runs only, after the traced window: re-runs the query of
    /// `sample` in-process to reach layers the workload's own path hides,
    /// filling in the sample's counters, or marking it failed.
    fn replay(&self, _sample: &mut Sample, _ctx: &Ctx) {}

    /// Queries run once after the timed window, outside it.
    fn probe(&self, _ctx: &Ctx) -> Vec<Probe> {
        Vec::new()
    }
}

/// Options for an executor with `slots` compute slots. Everything the
/// engine would otherwise take from the environment is pinned.
pub fn exec_options(slots: usize) -> ExecOptions {
    ExecOptions {
        worker_threads: slots,
        elasticity: ElasticityConfig::off(),
        admission: AdmissionConfig::default(),
        ..ExecOptions::default()
    }
}

/// Runs `f` on its own thread and waits at most `timeout` for it. On a
/// timeout the thread is abandoned, not stopped: a deadlocked query then
/// sits idle holding what it holds, but a query that is only slow runs on
/// and takes compute slots and CPU from the queries after it.
pub fn with_timeout<T: Send + 'static>(
    timeout: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("perfbench-query".into())
        .spawn(move || {
            let _ = tx.send(f());
        })
        .map_err(|e| format!("cannot spawn a query thread: {e}"))?;
    match rx.recv_timeout(timeout) {
        Ok(value) => {
            let _ = handle.join();
            Ok(value)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            Err(format!("timed out after {} ms", timeout.as_millis()))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err("query thread panicked".into()),
    }
}

/// SQL text to stage tree, one span per layer call: what
/// `accordion_sql::plan_select` does (parse, then analyze), then the
/// optimizer at Source-stage DOP `dop`, then fragmentation.
pub fn plan(
    catalog: &Catalog,
    sql: &str,
    dop: u32,
    query: u64,
    parent: SpanId,
    tracer: &Tracer,
) -> EngineResult<StageTree> {
    let statement = tracer
        .span("sql.parse", query, parent, || parse_one(sql))
        .map_err(|e| e.into_engine(sql))?;
    let Statement::Select(select) = statement else {
        return Err(AccordionError::Analysis("expected a SELECT".into()));
    };
    let logical = tracer
        .span("sql.analyze", query, parent, || {
            Analyzer::new(catalog, sql).analyze(&select)
        })
        .map_err(|e| e.into_engine(sql))?;
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    let physical = tracer.span("plan.optimize", query, parent, || {
        optimizer.optimize(&logical)
    })?;
    tracer.span("plan.fragment", query, parent, || {
        StageTree::build(physical)
    })
}

/// Runs a planned query on `executor` under a `cluster.execute` span.
/// Returns the result and the milliseconds spent in `execute_tree_opts`.
pub fn execute(
    executor: &QueryExecutor,
    catalog: &Arc<Catalog>,
    tree: &StageTree,
    opts: &ExecOptions,
    query: u64,
    parent: SpanId,
    tracer: &Tracer,
) -> EngineResult<(QueryResult, f64)> {
    tracer.span("cluster.execute", query, parent, || {
        let started = Instant::now();
        let result = executor.execute_tree_opts(catalog, tree, opts)?;
        Ok((result, started.elapsed().as_secs_f64() * 1e3))
    })
}

/// Re-runs a query in-process under a `replay` span, for the layers a
/// workload's own path hides, bounded by [`QUERY_TIMEOUT`]. Returns its
/// counters and execute time, or how it failed.
pub fn replay_in_process(
    executor: &QueryExecutor,
    catalog: &Arc<Catalog>,
    kind: Kind,
    dop: u32,
    query: u64,
    ctx: &Ctx,
) -> Result<(Digest, Exchange, f64), Outcome> {
    let (executor, catalog, ctx) = (executor.clone(), catalog.clone(), ctx.clone());
    with_timeout(QUERY_TIMEOUT, move || {
        let tracer = &ctx.tracer;
        let root = tracer.open("replay", query, SpanId::NONE);
        let out = (|| {
            let tree = plan(&catalog, kind.sql(), dop, query, root, tracer)
                .map_err(|e| Outcome::Failed(e.to_string()))?;
            let (result, execute_ms) = execute(
                &executor,
                &catalog,
                &tree,
                executor.options(),
                query,
                root,
                tracer,
            )
            .map_err(|e| Outcome::Failed(e.to_string()))?;
            tracer
                .span("check", query, root, || {
                    check_result(ctx.reference.get(kind), &result)
                })
                .map_err(Outcome::Wrong)?;
            let stats = result.stats();
            Ok((Digest::of(&tree, stats), Exchange::of(stats), execute_ms))
        })();
        tracer.close(root);
        out
    })
    .unwrap_or_else(|e| Err(Outcome::Failed(format!("replay {e}"))))
}

/// Warm-up: every session runs each query once with a loose deadline. The
/// samples only count for correctness.
pub fn warm_up<R: Rig>(
    rig: &R,
    sessions: &mut [R::Session],
    ctx: &Ctx,
    ids: &AtomicU64,
) -> Vec<Sample> {
    let mut out = Vec::new();
    for session in sessions.iter_mut() {
        for kind in Kind::ALL {
            let arrival = Arrival {
                kind,
                class: Class::Loose,
            };
            out.push(rig.run(session, arrival, ids.fetch_add(1, Ordering::Relaxed), ctx));
        }
    }
    out
}

/// One timed window: every client runs along its seeded arrival stream
/// in a closed loop and sends no new query once `window` has passed.
/// Returns every sample and the window's length, until the last query
/// ended.
pub fn timed_loop<R: Rig>(
    rig: &R,
    sessions: &mut [R::Session],
    seed: u64,
    window: Duration,
    ctx: &Ctx,
    ids: &AtomicU64,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let stop = started + window;
    let samples = std::thread::scope(|scope| {
        let clients: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(client, session)| {
                let mut arrivals = Arrivals::new(seed, client as u32);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < stop {
                        let arrival = arrivals.next().expect("arrivals never end");
                        let query = ids.fetch_add(1, Ordering::Relaxed);
                        out.push(rig.run(session, arrival, query, ctx));
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect::<Vec<Sample>>()
    });
    (samples, started.elapsed().as_secs_f64())
}
