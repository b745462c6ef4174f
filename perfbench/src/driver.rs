//! The benchmark's own moderator process: a [`TcpTransport`] for the
//! driver host running the deployment's share of it, a moderator tool
//! for the publish phase and one long-lived moderator session that
//! streams upgrades.

use std::time::{Duration, Instant};

use gdn_core::package::{AddFile, PackageInterface};
use gdn_core::{GdnDeployment, ModEvent, ModOp, ModeratorTool, ObjectId};
use globe_net::{
    impl_service_any, ns_token, owns_token, ports, ConnEvent, ConnId, Endpoint, Service,
    ServiceCtx, TcpTransport, Transport,
};
use globe_rts::{GlobeClient, RtConn};
use globe_sim::SimDuration;

use crate::cluster::{ClusterCfg, DRIVER};

const PUBLISH_PORT: u16 = ports::DRIVER;
const SESSION_PORT: u16 = ports::DRIVER + 1;
/// Timer namespace of the session's inbox poll.
const TICK_NS: u16 = 0x0B3C;
const TICK: SimDuration = SimDuration::from_millis(1);

/// The long-lived moderator session: takes one upgrade at a time from
/// its inbox and times it from submission to the client's completion.
struct Session {
    client: GlobeClient,
    inbox: Option<(ObjectId, AddFile)>,
    submitted: Option<Instant>,
    done: Option<(Duration, Result<(), String>)>,
}

impl Session {
    fn drain(&mut self) {
        for ev in self.client.take_events() {
            let took = self
                .submitted
                .take()
                .map_or(Duration::ZERO, |t| t.elapsed());
            self.done = Some((took, ev.result.map(|_| ()).map_err(|e| e.to_string())));
        }
    }
}

impl Service for Session {
    fn on_start(&mut self, ctx: &mut ServiceCtx<'_>) {
        ctx.set_timer(TICK, ns_token(TICK_NS, 0));
    }

    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: Endpoint, payload: Vec<u8>) {
        if self.client.handle_datagram(ctx, from, &payload) {
            self.drain();
        }
    }

    fn on_conn_event(&mut self, ctx: &mut ServiceCtx<'_>, conn: ConnId, ev: ConnEvent) {
        match self.client.handle_conn_event(ctx, conn, ev) {
            RtConn::Consumed | RtConn::AppData { .. } => self.drain(),
            RtConn::NotMine(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
        if owns_token(TICK_NS, token) {
            if let Some((oid, args)) = self.inbox.take() {
                self.submitted = Some(Instant::now());
                self.client
                    .op::<PackageInterface>(ctx, oid)
                    .invoke(&PackageInterface::ADD_FILE, &args);
            }
            ctx.set_timer(TICK, ns_token(TICK_NS, 0));
        } else if self.client.handle_timer(ctx, token) {
            self.drain();
        }
    }

    impl_service_any!();
}

/// The driver process's transport and deployment view.
pub struct Driver {
    transport: TcpTransport,
    publishes: usize,
}

impl Driver {
    /// Joins the cluster as the driver host and starts publishing `ops`.
    pub fn start(cfg: &ClusterCfg, ops: Vec<ModOp>) -> Driver {
        let (topo, addrs) = cfg.topology();
        let mut transport = TcpTransport::new(topo, cfg.seed, addrs, [DRIVER]);
        let gdn = GdnDeployment::install(&mut transport, cfg.options());
        let publishes = ops.len();
        let tool = gdn.moderator_tool(transport.topology(), DRIVER, "perfbench", ops);
        let t: &mut dyn Transport = &mut transport;
        t.add_service(DRIVER, PUBLISH_PORT, tool);
        let session = Session {
            client: GlobeClient::new(gdn.moderator_runtime(DRIVER, "perfbench"), 0x0410),
            inbox: None,
            submitted: None,
            done: None,
        };
        t.add_service(DRIVER, SESSION_PORT, session);
        transport.start();
        Driver {
            transport,
            publishes,
        }
    }

    /// Runs the transport until every publish finished; returns the
    /// object ids in publish order.
    pub fn wait_published(&mut self, timeout: Duration) -> Result<Vec<ObjectId>, String> {
        let n = self.publishes;
        self.transport.run_while(timeout, |t| {
            t.service::<ModeratorTool>(DRIVER, PUBLISH_PORT)
                .is_some_and(|tool| tool.results.len() < n)
        });
        let tool = self
            .transport
            .service::<ModeratorTool>(DRIVER, PUBLISH_PORT)
            .expect("moderator tool");
        if tool.results.len() < n {
            return Err(format!(
                "publish phase timed out: {} of {n} done",
                tool.results.len()
            ));
        }
        tool.results
            .iter()
            .map(|ev| match ev {
                ModEvent::PublishDone {
                    result: Ok(oid), ..
                } => Ok(*oid),
                other => Err(format!("publish failed: {other:?}")),
            })
            .collect()
    }

    /// Runs the transport loop for `d` (keeps the driver host's
    /// services answering between upgrades).
    pub fn pump(&mut self, d: Duration) {
        self.transport.run_while(d, |_| true);
    }

    /// Writes `data` as `file` of `oid` through the moderator session
    /// and waits for the commit acknowledgement; returns the time from
    /// the session's submission to its completion.
    pub fn upgrade(
        &mut self,
        oid: ObjectId,
        file: &str,
        data: Vec<u8>,
        timeout: Duration,
    ) -> Result<Duration, String> {
        let s = self
            .transport
            .service_mut::<Session>(DRIVER, SESSION_PORT)
            .expect("session");
        s.done = None;
        s.inbox = Some((
            oid,
            AddFile {
                name: file.to_owned(),
                data,
            },
        ));
        self.transport.run_while(timeout, |t| {
            t.service::<Session>(DRIVER, SESSION_PORT)
                .is_some_and(|s| s.done.is_none())
        });
        let s = self
            .transport
            .service_mut::<Session>(DRIVER, SESSION_PORT)
            .expect("session");
        match s.done.take() {
            Some((took, Ok(()))) => Ok(took),
            Some((_, Err(e))) => Err(format!("upgrade of {file} failed: {e}")),
            None => {
                s.inbox = None;
                Err(format!(
                    "upgrade of {file} not acknowledged within {timeout:?}"
                ))
            }
        }
    }
}
