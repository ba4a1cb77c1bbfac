//! `distributed`: one closed-loop client drives `Fleet::run_sql` on a
//! coordinator plus one `Worker` started in the same process, over
//! loopback TCP. Each node has 1 compute slot; queries run at DOP 1 with
//! elasticity `off`. Pages cross `net::tcp` through the `data::wire`
//! codec, and control runs through `cluster::dist` and `core::dist`.
//!
//! After the timed window a saturation probe runs q1 and q3 once each on
//! a fresh fleet at DOP 2, where a node's Source tasks can fill its only
//! compute slot.

use std::sync::Arc;
use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_core::{DistributedRun, Fleet, Worker};
use accordion_data::page::Page;
use accordion_storage::catalog::Catalog;

use crate::check::check_result;
use crate::seq::{Arrival, Class, Kind};
use crate::stats::median;
use crate::trace::SpanId;
use crate::workload::{
    exec_options, replay_in_process, with_timeout, Ctx, Exchange, Outcome, Probe, Rig, Sample,
    QUERY_TIMEOUT,
};

const SLOTS_PER_NODE: usize = 1;
const DOP: u32 = 1;
const PROBE_DOP: u32 = 2;

/// A coordinator and its one worker.
pub struct Node {
    fleet: Fleet,
    _worker: Worker,
}

fn start_fleet(catalog: &Arc<Catalog>, dop: u32) -> Result<Node, String> {
    let opts = exec_options(SLOTS_PER_NODE);
    let worker = Worker::start("127.0.0.1:0", catalog.clone(), opts.clone())
        .map_err(|e| format!("worker: {e}"))?;
    let fleet = Fleet::connect(&[worker.ctrl_addr()], catalog.clone(), opts, "off", dop)
        .map_err(|e| format!("fleet: {e}"))?;
    Ok(Node {
        fleet,
        _worker: worker,
    })
}

pub struct Distributed {
    catalog: Arc<Catalog>,
    /// In-process executor with the fleet's total slots, for the traced
    /// run's replays.
    replay: QueryExecutor,
}

/// Runs one query on `node`, bounded by the timeout. Hands the node back
/// unless the query hung with it.
fn run_bounded(
    mut node: Node,
    kind: Kind,
    query: u64,
    ctx: &Ctx,
) -> (
    Option<Node>,
    f64,
    Result<(Exchange, DistributedRun), Outcome>,
) {
    let ctx = ctx.clone();
    let run = move || {
        let tracer = &ctx.tracer;
        let root = tracer.open("query", query, SpanId::NONE);
        let started = Instant::now();
        let outcome = match tracer.span("core.run_sql", query, root, || {
            node.fleet.run_sql(kind.sql())
        }) {
            Err(e) => Err(Outcome::Failed(e.to_string())),
            Ok(run) if run.remote_slots == 0 => Err(Outcome::Wrong(
                "no remote consumer slots: the plan did not cross nodes".into(),
            )),
            Ok(run) => tracer
                .span("check", query, root, || {
                    check_result(ctx.reference.get(kind), &run.result)
                })
                .map(|()| (Exchange::of(run.result.stats()), run))
                .map_err(Outcome::Wrong),
        };
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.close(root);
        (node, latency_ms, outcome)
    };
    match with_timeout(QUERY_TIMEOUT, run) {
        Ok((node, latency_ms, outcome)) => (Some(node), latency_ms, outcome),
        Err(e) => (
            None,
            QUERY_TIMEOUT.as_secs_f64() * 1e3,
            Err(Outcome::Failed(e)),
        ),
    }
}

impl Rig for Distributed {
    /// `None` after a hang: the next query starts a fresh fleet.
    type Session = Option<Node>;
    const CLIENTS: usize = 1;
    const MEASURES_WIRE: bool = true;

    fn start(catalog: Arc<Catalog>) -> Result<(Self, Vec<Self::Session>), String> {
        let node = start_fleet(&catalog, DOP)?;
        let replay = QueryExecutor::new(exec_options(2 * SLOTS_PER_NODE));
        Ok((Distributed { catalog, replay }, vec![Some(node)]))
    }

    fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    fn run(&self, session: &mut Option<Node>, arrival: Arrival, query: u64, ctx: &Ctx) -> Sample {
        let kind = arrival.kind;
        let mut sample = Sample::new(query, arrival, kind.deadline_ms(Class::Loose));
        let node = match session.take() {
            Some(node) => node,
            None => match start_fleet(&self.catalog, DOP) {
                Ok(node) => node,
                Err(e) => {
                    sample.outcome = Outcome::Failed(e);
                    return sample;
                }
            },
        };
        let (node, latency_ms, outcome) = run_bounded(node, kind, query, ctx);
        *session = node;
        sample.latency_ms = latency_ms;
        match outcome {
            Ok((exchange, run)) => {
                sample.outcome = Outcome::Ok;
                sample.exchange = Some(exchange);
                sample.execute_ms = Some(run.elapsed_ms as f64);
                sample.remote_slots = Some(run.remote_slots);
            }
            Err(outcome) => sample.outcome = outcome,
        }
        sample
    }

    /// The coordinator plans inside `run_sql`, and its `QueryStats` count
    /// only the operators that ran on the coordinator. An in-process replay
    /// at the same DOP and total slots gives the planning layers, the stage
    /// count and the operator counters of the whole query, and the execute
    /// time that `core.dist_overhead_ms` subtracts. The exchange counters
    /// stay the timed query's, over TCP.
    fn replay(&self, sample: &mut Sample, ctx: &Ctx) {
        match replay_in_process(
            &self.replay,
            &self.catalog,
            sample.arrival.kind,
            DOP,
            sample.query,
            ctx,
        ) {
            Ok((digest, _, _)) => sample.digest = Some(digest),
            Err(outcome) => sample.outcome = outcome,
        }
    }

    fn probe(&self, ctx: &Ctx) -> Vec<Probe> {
        [Kind::Q1, Kind::Q3]
            .into_iter()
            .map(|kind| {
                let (outcome, timed_out) = match start_fleet(&self.catalog, PROBE_DOP) {
                    Err(e) => (Outcome::Failed(e), false),
                    Ok(node) => match run_bounded(node, kind, u64::MAX, ctx) {
                        (_, _, Ok(_)) => (Outcome::Ok, false),
                        (None, _, Err(outcome)) => (outcome, true),
                        (Some(_), _, Err(outcome)) => (outcome, false),
                    },
                };
                Probe {
                    kind,
                    outcome,
                    timed_out,
                }
            })
            .collect()
    }
}

/// Nanoseconds per encoded byte spent in `Page::encode` and in
/// `Page::decode` over every page of lineitem; the median of three passes.
pub fn wire_costs(catalog: &Catalog, page_rows: usize) -> Result<(f64, f64), String> {
    let table = catalog.get("lineitem").map_err(|e| e.to_string())?;
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut enc_ns, mut dec_ns, mut bytes) = (0u128, 0u128, 0usize);
        for split in table.splits.splits() {
            let mut pages = split.open(page_rows).map_err(|e| e.to_string())?;
            while let Some(data) = pages.next_page().map_err(|e| e.to_string())? {
                let page = Page::data(data);
                let t = Instant::now();
                let frame = std::hint::black_box(page.encode());
                enc_ns += t.elapsed().as_nanos();
                let t = Instant::now();
                let back = Page::decode(std::hint::black_box(&frame)).map_err(|e| e.to_string())?;
                dec_ns += t.elapsed().as_nanos();
                if back.row_count() != page.row_count() {
                    return Err("a decoded page lost rows".into());
                }
                bytes += frame.len();
            }
        }
        encode.push(enc_ns as f64 / bytes as f64);
        decode.push(dec_ns as f64 / bytes as f64);
    }
    Ok((
        median(&encode).unwrap_or(0.0),
        median(&decode).unwrap_or(0.0),
    ))
}
