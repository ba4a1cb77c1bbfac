//! `sql-serial`: one client sends SQL text to the query server over
//! loopback and reads the rows back, the path users take. The server's
//! shared executor has 2 compute slots; sessions plan at DOP 2 with
//! elasticity `off`.

use std::sync::Arc;
use std::time::Instant;

use accordion_cluster::QueryExecutor;
use accordion_common::config::NetworkConfig;
use accordion_common::AccordionError;
use accordion_core::{Client, QueryServer, ServerConfig};
use accordion_storage::catalog::Catalog;

use crate::check::check_rows;
use crate::seq::{Arrival, Class};
use crate::trace::SpanId;
use crate::workload::{exec_options, replay_in_process, Ctx, Outcome, Rig, Sample, QUERY_TIMEOUT};

const SLOTS: usize = 2;
const DOP: u32 = 2;

pub struct SqlSerial {
    catalog: Arc<Catalog>,
    executor: QueryExecutor,
    server: QueryServer,
}

impl SqlSerial {
    /// A client whose every read is bounded by the query timeout, so a hung
    /// query surfaces as an error.
    fn connect(&self) -> Result<Client, AccordionError> {
        let network = NetworkConfig::builder()
            .read_timeout_ms(Some(QUERY_TIMEOUT.as_millis() as u64))
            .build();
        Client::connect_with(self.server.local_addr(), &network)
    }
}

impl Rig for SqlSerial {
    /// `None` after a transport error: the next query reconnects.
    type Session = Option<Client>;
    const CLIENTS: usize = 1;

    fn start(catalog: Arc<Catalog>) -> Result<(Self, Vec<Self::Session>), String> {
        let opts = exec_options(SLOTS);
        let executor = QueryExecutor::new(opts.clone());
        let config = ServerConfig {
            default_dop: DOP,
            exec: opts,
        };
        let server = QueryServer::start(catalog.clone(), executor.clone(), config, "127.0.0.1:0")
            .map_err(|e| format!("query server: {e}"))?;
        let rig = SqlSerial {
            catalog,
            executor,
            server,
        };
        let client = rig.connect().map_err(|e| format!("client: {e}"))?;
        Ok((rig, vec![Some(client)]))
    }

    fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    fn executor(&self) -> Option<&QueryExecutor> {
        Some(&self.executor)
    }

    fn run(&self, session: &mut Option<Client>, arrival: Arrival, query: u64, ctx: &Ctx) -> Sample {
        let kind = arrival.kind;
        // No controller runs here, so every query is held to the latency
        // target any healthy configuration meets: the loose deadline.
        let mut sample = Sample::new(query, arrival, kind.deadline_ms(Class::Loose));
        let tracer = &ctx.tracer;
        let root = tracer.open("query", query, SpanId::NONE);
        let started = Instant::now();
        if session.is_none() {
            *session = self.connect().ok();
        }
        sample.outcome = match session {
            None => Outcome::Failed("cannot reconnect to the query server".into()),
            Some(client) => {
                match tracer.span("core.query", query, root, || client.query(kind.sql())) {
                    Ok(rows) => {
                        sample.server_ms = Some(rows.elapsed_ms as f64);
                        match tracer.span("check", query, root, || {
                            check_rows(ctx.reference.get(kind), &rows)
                        }) {
                            Ok(()) => Outcome::Ok,
                            Err(e) => Outcome::Wrong(e),
                        }
                    }
                    Err(e) => {
                        // After a timeout or a dropped connection the session's
                        // framing is lost; start a fresh one next time.
                        if matches!(e, AccordionError::Io(_)) {
                            *session = None;
                        }
                        Outcome::Failed(e.to_string())
                    }
                }
            }
        };
        sample.latency_ms = started.elapsed().as_secs_f64() * 1e3;
        tracer.close(root);
        sample
    }

    /// The server's layers are out of reach, so the statement runs again
    /// in-process on the server's own executor and options.
    fn replay(&self, sample: &mut Sample, ctx: &Ctx) {
        match replay_in_process(
            &self.executor,
            &self.catalog,
            sample.arrival.kind,
            DOP,
            sample.query,
            ctx,
        ) {
            Ok((digest, exchange, execute_ms)) => {
                sample.digest = Some(digest);
                sample.exchange = Some(exchange);
                sample.execute_ms = Some(execute_ms);
            }
            Err(outcome) => sample.outcome = outcome,
        }
    }
}
