//! `wide_area_sim`: the deterministic simulated `World` at the
//! full-scale sweep's shape — four regions, replicated and chunked
//! packages, Zipf HTTP reads from every site and a write stream — with
//! every read's body checked, the write stream timed to commit and to
//! remote visibility, and the whole history judged by the consistency
//! auditor.
//!
//! The sweep's rolling replica kills are left out: with them, reads in
//! flight when a replica dies fail on some seeds and not others (see
//! the benchmark's README), and a benchmark whose failure count depends
//! on the seed cannot be compared run against run.
//!
//! A round is one complete simulated run on identical inputs; a run
//! repeats rounds until `--seconds` of wall time are spent and reports
//! medians of the wall-clock figures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdn_core::package::{AddFile, PackageInterface};
use gdn_core::{GdnDeployment, GdnOptions, HttpRequest, HttpResponse, ModOp, ObjectId, Scenario};
use globe_bench::{audit, moderator_runtime, publish_objects, wan_bytes, AuditSpec};
use globe_net::{
    impl_service_any, ns_token, owns_token, ports, ConnEvent, ConnId, Endpoint, HostId, NetParams,
    Service, ServiceCtx, Tier, Topology, Transport, World,
};
use globe_rts::{GlobeClient, PropagationMode, RtConn};
use globe_sim::{optrace, Metrics, SimDuration, SimTime, TraceLevel, TraceLog};
use globe_workloads::ZipfSampler;

use crate::checks;
use crate::host;
use crate::inputs::{self, MixSpec, PackageGen};
use crate::replay;
use crate::report::Report;
use crate::stats::median;
use crate::Args;

const REGIONS: u32 = 4;
/// Read-phase length, simulated seconds.
const READ_SECS: u64 = 180;
/// Read arrivals per second at each site's reader.
const READ_RATE: f64 = 15.0;
const ZIPF_S: f64 = 0.9;
/// Gap between writes of the read-phase stream.
const WRITE_PERIOD: SimDuration = SimDuration::from_millis(1500);
/// Times the read-phase stream rewrites every file.
const WRITE_CYCLES: usize = 4;
/// Writes in the write-only window before the reads.
const SOLO_WRITES: usize = 6;
/// Drain after the read phase.
const DRAIN: SimDuration = SimDuration::from_secs(30);
/// Interval between visibility probes.
const PROBE_GAP: SimDuration = SimDuration::from_millis(50);
/// Bytes each write rewrites (one chunk).
const WRITE_PART: usize = 4096;
/// Virtual-time slice of the read phase over which CPU time is taken.
const SLICE: SimDuration = SimDuration::from_secs(5);
/// Least rounds per run; a run makes one more per `ROUND_SECS` of
/// `--seconds`. The count is fixed by the arguments, so every run does
/// the same work whatever the host's speed.
const MIN_ROUNDS: u64 = 3;
const ROUND_SECS: u64 = 4;

const READER_PORT: u16 = ports::DRIVER + 1;
const WRITER_PORT: u16 = ports::DRIVER + 2;
const FINAL_PORT: u16 = ports::DRIVER + 3;
const SOLO_PORT: u16 = ports::DRIVER + 4;
const WARM_PORT: u16 = ports::DRIVER + 5;
const NS: u16 = 0x0B5E;

/// The package mix: replicated full-state packages of small files and
/// chunked packages of larger ones. Every package is replicated in
/// every region with its master in region 0.
fn mixes(seed: u64) -> Vec<(PackageGen, PropagationMode)> {
    let replicated = inputs::mix(
        &MixSpec {
            prefix: "/sim/rep/p",
            packages: 6,
            files: 2,
            size: (2048, 8192),
            align: 1,
        },
        seed,
    );
    let chunked = inputs::mix(
        &MixSpec {
            prefix: "/sim/chunk/p",
            packages: 4,
            files: 4,
            size: (16 << 10, 64 << 10),
            align: 4096,
        },
        seed ^ 0xC4,
    );
    replicated
        .into_iter()
        .map(|p| (p, PropagationMode::PushState))
        .chain(
            chunked
                .into_iter()
                .map(|p| (p, PropagationMode::PushChunks)),
        )
        .collect()
}

/// Every version of every file written so far, shared by the world's
/// readers and writer (one thread: the world's).
struct Versions {
    /// Per flat file id, oldest first.
    files: Vec<Vec<Arc<Vec<u8>>>>,
    ids: Vec<Vec<usize>>,
    names: Vec<String>,
    file_names: Vec<Vec<String>>,
}

impl Versions {
    fn new(mix: &[PackageGen]) -> Versions {
        let mut files = Vec::new();
        let mut ids = Vec::new();
        for p in mix {
            let mut pi = Vec::new();
            for f in &p.files {
                pi.push(files.len());
                files.push(f.versions.clone());
            }
            ids.push(pi);
        }
        Versions {
            files,
            ids,
            names: mix.iter().map(|p| p.name.clone()).collect(),
            file_names: mix
                .iter()
                .map(|p| p.files.iter().map(|f| f.name.clone()).collect())
                .collect(),
        }
    }

    fn path(&self, p: usize, f: usize) -> String {
        format!("/pkg{}?file={}", self.names[p], self.file_names[p][f])
    }
}

type Shared = Rc<RefCell<Versions>>;

/// One simulated read.
#[derive(Clone, Copy)]
struct Read {
    latency: SimDuration,
    ok: bool,
    body: usize,
}

/// A site's reader: Poisson arrivals, Zipf package choice, a uniformly
/// chosen file, one connection per request to the site's access point.
/// With a `script` it instead fetches each listed file once, in order.
struct Reader {
    httpd: Endpoint,
    versions: Shared,
    zipf: ZipfSampler,
    rate: f64,
    until: SimTime,
    script: Option<Vec<(usize, usize)>>,
    inflight: BTreeMap<u64, (SimTime, usize, usize)>,
    reads: Vec<Read>,
    /// Versions seen by scripted fetches, per `(package, file)`.
    seen: Vec<((usize, usize), Option<usize>)>,
    errors: Vec<String>,
}

impl Reader {
    fn new(httpd: Endpoint, versions: Shared, rate: f64, until: SimTime) -> Reader {
        let n = versions.borrow().names.len();
        Reader {
            httpd,
            versions,
            zipf: ZipfSampler::new(n, ZIPF_S),
            rate,
            until,
            script: None,
            inflight: BTreeMap::new(),
            reads: Vec::new(),
            seen: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn fetch(&mut self, ctx: &mut ServiceCtx<'_>, p: usize, f: usize) {
        let path = self.versions.borrow().path(p, f);
        let conn = ctx.connect(self.httpd);
        ctx.send(conn, HttpRequest::get(&path));
        self.inflight.insert(conn.0, (ctx.now(), p, f));
    }

    fn schedule(&mut self, ctx: &mut ServiceCtx<'_>) {
        if self.script.is_some() {
            ctx.set_timer(SimDuration::ZERO, ns_token(NS, 0));
            return;
        }
        let gap = SimDuration::from_secs_f64(ctx.rng().gen_exp(1.0 / self.rate));
        if ctx.now() + gap < self.until {
            ctx.set_timer(gap, ns_token(NS, 0));
        }
    }
}

impl Service for Reader {
    fn on_start(&mut self, ctx: &mut ServiceCtx<'_>) {
        self.schedule(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
        if !owns_token(NS, token) {
            return;
        }
        if let Some(script) = &mut self.script {
            if let Some((p, f)) = script.pop() {
                self.fetch(ctx, p, f);
            }
            return;
        }
        let p = self.zipf.sample(ctx.rng());
        let nf = self.versions.borrow().file_names[p].len();
        let f = ctx.rng().gen_index(nf);
        self.fetch(ctx, p, f);
        self.schedule(ctx);
    }

    fn on_conn_event(&mut self, ctx: &mut ServiceCtx<'_>, conn: ConnId, ev: ConnEvent) {
        let (msg, closed) = match ev {
            ConnEvent::Msg(m) => (Some(m), false),
            ConnEvent::Closed(_) => (None, true),
            _ => return,
        };
        let Some((started, p, f)) = self.inflight.remove(&conn.0) else {
            return;
        };
        let latency = ctx.now().saturating_sub(started);
        let mut read = Read {
            latency,
            ok: false,
            body: 0,
        };
        let mut version = None;
        if let Some(m) = msg.as_deref().and_then(HttpResponse::parse) {
            if m.status == 200 {
                let v = self.versions.borrow();
                let all = &v.files[v.ids[p][f]];
                match checks::version_of(all, &m.body) {
                    Some(found) => {
                        read.ok = true;
                        read.body = m.body.len();
                        version = Some(found);
                    }
                    None => self.errors.push(format!(
                        "{}: body matches no version written ({} bytes)",
                        v.path(p, f),
                        m.body.len()
                    )),
                }
            }
        }
        if !closed {
            ctx.close(conn);
        }
        if self.script.is_some() {
            self.seen.push(((p, f), version));
            self.schedule(ctx);
        } else {
            self.reads.push(read);
        }
    }

    impl_service_any!();
}

/// The write stream: one moderator session rewriting one chunk of a
/// file per write, each write followed by polling a remote region's
/// access point until it serves the new bytes.
struct Writer {
    client: GlobeClient,
    oids: Vec<ObjectId>,
    versions: Shared,
    files: Vec<(usize, usize)>,
    seed: u64,
    probe: Endpoint,
    start: SimTime,
    until: SimTime,
    max: usize,
    k: u64,
    /// `(issued at, package, file, wanted version)` of the write in
    /// flight or being probed.
    current: Option<(SimTime, usize, usize, usize)>,
    probing: Option<u64>,
    commits: Vec<SimDuration>,
    visible: Vec<SimDuration>,
    changed_bytes: u64,
    failed: u64,
    probes: u64,
    probe_failures: u64,
    errors: Vec<String>,
}

const WRITE_TICK: u64 = 1;
const PROBE_TICK: u64 = 2;

impl Writer {
    fn tick_at(&self, ctx: &mut ServiceCtx<'_>, at: SimTime, what: u64) {
        ctx.set_timer(at.saturating_sub(ctx.now()), ns_token(NS, what));
    }

    fn write(&mut self, ctx: &mut ServiceCtx<'_>) {
        if ctx.now() >= self.until || self.k as usize >= self.max {
            return;
        }
        let up = {
            let v = self.versions.borrow();
            inputs::upgrade(
                &self.files,
                |p, f| Arc::clone(v.files[v.ids[p][f]].last().expect("published")),
                self.seed,
                self.k,
                WRITE_PART,
            )
        };
        let (want, name) = {
            let mut v = self.versions.borrow_mut();
            let id = v.ids[up.pkg][up.file];
            v.files[id].push(Arc::clone(&up.data));
            (v.files[id].len() - 1, v.file_names[up.pkg][up.file].clone())
        };
        self.changed_bytes += WRITE_PART.min(up.data.len()) as u64;
        self.current = Some((ctx.now(), up.pkg, up.file, want));
        self.client
            .op::<PackageInterface>(ctx, self.oids[up.pkg])
            .invoke(
                &PackageInterface::ADD_FILE,
                &AddFile {
                    name,
                    data: up.data.as_ref().clone(),
                },
            );
    }

    fn probe(&mut self, ctx: &mut ServiceCtx<'_>) {
        let Some((_, p, f, _)) = self.current else {
            return;
        };
        let path = self.versions.borrow().path(p, f);
        let conn = ctx.connect(self.probe);
        ctx.send(conn, HttpRequest::get(&path));
        self.probing = Some(conn.0);
        self.probes += 1;
    }

    fn next_write(&mut self, ctx: &mut ServiceCtx<'_>) {
        self.current = None;
        self.k += 1;
        let due = self.start + WRITE_PERIOD * self.k;
        self.tick_at(ctx, due.max(ctx.now()), WRITE_TICK);
    }

    fn drain(&mut self, ctx: &mut ServiceCtx<'_>) {
        for done in self.client.take_events() {
            let Some((issued, ..)) = self.current else {
                continue;
            };
            match done.result {
                Ok(_) => {
                    self.commits.push(ctx.now().saturating_sub(issued));
                    self.probe(ctx);
                }
                Err(e) => {
                    self.failed += 1;
                    self.errors.push(format!("write {}: {e}", self.k));
                    self.next_write(ctx);
                }
            }
        }
    }
}

impl Service for Writer {
    fn on_start(&mut self, ctx: &mut ServiceCtx<'_>) {
        self.tick_at(ctx, self.start.max(ctx.now()), WRITE_TICK);
    }

    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: Endpoint, payload: Vec<u8>) {
        if self.client.handle_datagram(ctx, from, &payload) {
            self.drain(ctx);
        }
    }

    fn on_conn_event(&mut self, ctx: &mut ServiceCtx<'_>, conn: ConnId, ev: ConnEvent) {
        let ev = match self.client.handle_conn_event(ctx, conn, ev) {
            RtConn::Consumed | RtConn::AppData { .. } => {
                self.drain(ctx);
                return;
            }
            RtConn::NotMine(ev) => ev,
        };
        if self.probing != Some(conn.0) {
            return;
        }
        let msg = match ev {
            ConnEvent::Msg(m) => Some(m),
            ConnEvent::Closed(_) => None,
            _ => return,
        };
        self.probing = None;
        let Some((issued, p, f, want)) = self.current else {
            return;
        };
        let mut fresh = false;
        match msg.as_deref().and_then(HttpResponse::parse) {
            Some(r) if r.status == 200 => {
                let v = self.versions.borrow();
                match checks::version_of(&v.files[v.ids[p][f]], &r.body) {
                    Some(found) => fresh = found >= want,
                    None => self
                        .errors
                        .push(format!("{}: probe body matches no version", v.path(p, f))),
                }
            }
            _ => self.probe_failures += 1,
        }
        if msg.is_some() {
            ctx.close(conn);
        }
        if fresh {
            self.visible.push(ctx.now().saturating_sub(issued));
            self.next_write(ctx);
        } else {
            ctx.set_timer(PROBE_GAP, ns_token(NS, PROBE_TICK));
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
        if owns_token(NS, token) {
            match globe_net::token_id(token) {
                WRITE_TICK => self.write(ctx),
                PROBE_TICK => self.probe(ctx),
                _ => {}
            }
        } else if self.client.handle_timer(ctx, token) {
            self.drain(ctx);
        }
    }

    impl_service_any!();
}

/// Which layer a service belongs to, by its port.
fn layer_of(port: u16) -> usize {
    match port {
        ports::GOS_CTL => 0,
        ports::HTTP | ports::HTTPS => 1,
        p if p >= globe_gls::tree::GLS_PORT_BASE => 2,
        ports::DNS | ports::GNS_NA | globe_gns::RESOLVER_PORT => 3,
        _ => 4,
    }
}

const LAYERS: [&str; 5] = ["gos", "httpd", "gls", "gns", "loadgen"];

/// Busy time per layer, accumulated by [`Timed`].
type Clock = Rc<RefCell<[Duration; 5]>>;

/// Timing decorator: forwards every callback to the wrapped service and
/// charges its wall time to the service's layer. Downcasts reach the
/// wrapped service, so the world's typed access is unchanged.
struct Timed {
    inner: Box<dyn Service>,
    layer: usize,
    clock: Clock,
}

impl Timed {
    fn timed(&mut self, f: impl FnOnce(&mut dyn Service)) {
        let t = Instant::now();
        f(self.inner.as_mut());
        self.clock.borrow_mut()[self.layer] += t.elapsed();
    }
}

impl Service for Timed {
    fn on_start(&mut self, ctx: &mut ServiceCtx<'_>) {
        self.timed(|s| s.on_start(ctx));
    }
    fn on_datagram(&mut self, ctx: &mut ServiceCtx<'_>, from: Endpoint, payload: Vec<u8>) {
        self.timed(|s| s.on_datagram(ctx, from, payload));
    }
    fn on_conn_event(&mut self, ctx: &mut ServiceCtx<'_>, conn: ConnId, ev: ConnEvent) {
        self.timed(|s| s.on_conn_event(ctx, conn, ev));
    }
    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_>, token: u64) {
        self.timed(|s| s.on_timer(ctx, token));
    }
    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }
    fn on_restart(&mut self, ctx: &mut ServiceCtx<'_>) {
        self.timed(|s| s.on_restart(ctx));
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// A [`Transport`] over the world that wraps every service it is given
/// in [`Timed`] — how the deployment's own services get timed without
/// touching their code.
struct TimedWorld<'a> {
    world: &'a mut World,
    clock: Option<Clock>,
}

impl Transport for TimedWorld<'_> {
    fn topology(&self) -> &Topology {
        self.world.topology()
    }
    fn now(&self) -> SimTime {
        self.world.now()
    }
    fn add_service_boxed(&mut self, host: HostId, port: u16, service: Box<dyn Service>) {
        let service: Box<dyn Service> = match &self.clock {
            Some(clock) => Box::new(Timed {
                inner: service,
                layer: layer_of(port),
                clock: Rc::clone(clock),
            }),
            None => service,
        };
        self.world.add_service_boxed(host, port, service);
    }
    fn start(&mut self) {
        self.world.start();
    }
    fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }
    fn metrics(&self) -> &Metrics {
        self.world.metrics()
    }
    fn metrics_mut(&mut self) -> &mut Metrics {
        self.world.metrics_mut()
    }
}

/// One simulated round's results.
struct Round {
    setup: Duration,
    read_wall: Duration,
    /// The world thread's CPU time in each `SLICE` of the read phase
    /// (stolen time excluded; wall time where the kernel does not say).
    slice_cpu: Vec<Duration>,
    reads: Vec<Read>,
    commits: Vec<SimDuration>,
    visible: Vec<SimDuration>,
    wan_bytes: u64,
    wan_floor: u64,
    writes: u64,
    write_failures: u64,
    probes: u64,
    probe_failures: u64,
    warm_reads: u64,
    warm_failures: u64,
    final_reads: u64,
    final_failures: u64,
    errors: Vec<String>,
    events: u64,
    service_time: [Duration; 5],
    per_upgrade: BTreeMap<&'static str, f64>,
    per_fetch: BTreeMap<&'static str, f64>,
    per_op: BTreeMap<&'static str, f64>,
    bodies: Vec<Arc<Vec<u8>>>,
    requests: Vec<Vec<u8>>,
}

/// Counters the per-operation figures are taken from.
const COUNTERS: [&str; 14] = [
    "rts.invocations",
    "client.ops",
    "rts.grp.encodes",
    "rts.grp.bytes_encoded",
    "rts.chunks.fetched",
    "rts.chunks.dedup_hits",
    "rts.persist.stable_puts",
    "client.retries",
    "rts.rebinds",
    "gls.node.lookups",
    "dns.resolver.queries",
    "client.hedges",
    "rts.health.failures",
    "rts.health.rotations",
];

fn snapshot(world: &World) -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|&k| (k, world.metrics().counter(k)))
        .collect()
}

/// Runs one complete simulated round.
fn round(seed: u64, timed: bool) -> Result<Round, String> {
    let t_setup = Instant::now();
    let mix = mixes(seed);
    let packages: Vec<PackageGen> = mix.iter().map(|(p, _)| p.clone()).collect();
    let topo = Topology::grid(REGIONS, 1, 1, 3);
    let params = NetParams::default().with_jitter_fraction(0.1);
    let mut world = World::new(topo.clone(), params.clone(), seed);
    world.set_trace(TraceLog::new(TraceLevel::Info));
    // Per site: host 0 runs the GLS/GNS daemons, host 1 the object
    // server and its HTTPD, host 2 this run's readers and writer.
    let gos_hosts: Vec<HostId> = topo.sites().map(|s| topo.hosts_in_site(s)[1]).collect();
    let drivers: Vec<HostId> = topo.sites().map(|s| topo.hosts_in_site(s)[2]).collect();
    let options = GdnOptions {
        gos_hosts: gos_hosts.clone(),
        ..GdnOptions::default()
    };
    let cache_ttl = options.cache_ttl;
    let clock: Option<Clock> = timed.then(|| Rc::new(RefCell::new([Duration::ZERO; 5])));
    let gdn = {
        let mut tw = TimedWorld {
            world: &mut world,
            clock: clock.clone(),
        };
        GdnDeployment::install(&mut tw, options)
    };
    let replicas: Vec<Endpoint> = gos_hosts
        .iter()
        .map(|&h| Endpoint::new(h, ports::GOS_CTL))
        .collect();
    let ops: Vec<ModOp> = mix
        .iter()
        .map(|(p, mode)| ModOp::Publish {
            name: p.name.clone(),
            description: format!("simulated package {}", p.name),
            files: p
                .files
                .iter()
                .map(|f| (f.name.clone(), f.versions[0].as_ref().clone()))
                .collect(),
            scenario: Scenario::master_slave(replicas.clone(), *mode),
        })
        .collect();
    let oids: Vec<ObjectId> = publish_objects(&mut world, &gdn, ops, drivers[0])
        .into_iter()
        .map(|(_, oid)| oid)
        .collect();
    world.run_for(SimDuration::from_secs(10));
    let setup = t_setup.elapsed();

    let add = |world: &mut World, host: HostId, port: u16, s: Box<dyn Service>| {
        let s: Box<dyn Service> = match &clock {
            Some(c) => Box::new(Timed {
                inner: s,
                layer: layer_of(port),
                clock: Rc::clone(c),
            }),
            None => s,
        };
        world.add_service_boxed(host, port, s);
    };
    let versions: Shared = Rc::new(RefCell::new(Versions::new(&packages)));
    let files = inputs::all_files(&packages);
    let probe_ap = gdn.httpd_for(&topo, drivers[REGIONS as usize - 1]);
    let writer = |start: SimTime, until: SimTime, max: usize, salt: u64| Writer {
        client: GlobeClient::new(moderator_runtime(&gdn, drivers[0]), 0x0410),
        oids: oids.clone(),
        versions: Rc::clone(&versions),
        files: files.clone(),
        seed: seed ^ salt,
        probe: probe_ap,
        start,
        until,
        max,
        k: 0,
        current: None,
        probing: None,
        commits: Vec::new(),
        visible: Vec::new(),
        changed_bytes: 0,
        failed: 0,
        probes: 0,
        probe_failures: 0,
        errors: Vec::new(),
    };

    // A warm pass: every site fetches every file once, so binds and
    // first lookups are done before anything is measured.
    let mut warm_errors = Vec::new();
    let (warm_reads, warm_failures) = sweep(
        &mut world,
        &gdn,
        &drivers,
        &versions,
        &files,
        WARM_PORT,
        &clock,
        &mut warm_errors,
    );

    // Write-only window: per-write counters without reads in the way.
    let wan0 = wan_bytes(&world);
    let before_solo = snapshot(&world);
    let solo_start = world.now();
    add(
        &mut world,
        drivers[0],
        SOLO_PORT,
        Box::new(writer(solo_start, SimTime::MAX, SOLO_WRITES, 0x50)),
    );
    world.run_for(WRITE_PERIOD * SOLO_WRITES as u64 + SimDuration::from_secs(10));
    let after_solo = snapshot(&world);
    let solo = world
        .service::<Writer>(drivers[0], SOLO_PORT)
        .expect("solo writer");
    let solo_writes = solo.commits.len().max(1) as f64;
    let per_upgrade: BTreeMap<&'static str, f64> = COUNTERS
        .iter()
        .map(|&k| (k, (after_solo[k] - before_solo[k]) as f64 / solo_writes))
        .collect();
    let mut errors = warm_errors;
    errors.extend(solo.errors.iter().cloned());
    let mut changed = solo.changed_bytes;
    let mut writes = solo.commits.len() as u64;
    let mut write_failures = solo.failed;
    if solo.commits.len() < SOLO_WRITES {
        errors.push(format!(
            "write-only window finished {} of {SOLO_WRITES} writes",
            solo.commits.len()
        ));
    }

    // Read phase: readers at every site and the write stream, which
    // rewrites every file exactly `WRITE_CYCLES` times so each seed
    // writes the same mix of file sizes.
    let read_start = world.now();
    let until = read_start + SimDuration::from_secs(READ_SECS);
    for &h in &drivers {
        let reader = Reader::new(
            gdn.httpd_for(&topo, h),
            Rc::clone(&versions),
            READ_RATE,
            until,
        );
        add(&mut world, h, READER_PORT, Box::new(reader));
    }
    add(
        &mut world,
        drivers[0],
        WRITER_PORT,
        Box::new(writer(read_start, until, WRITE_CYCLES * files.len(), 0x5E)),
    );
    let before_reads = snapshot(&world);
    let events0 = world.events_processed();
    let clock0 = clock.as_ref().map(|c| *c.borrow());
    let t_read = Instant::now();
    let mut slice_cpu = Vec::new();
    let mut t = read_start;
    while t < until + DRAIN {
        t = (t + SLICE).min(until + DRAIN);
        let (w0, c0) = (Instant::now(), host::thread_cpu_time());
        world.run_until(t);
        slice_cpu.push(match (c0, host::thread_cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => w0.elapsed(),
        });
    }
    let read_wall = t_read.elapsed();
    let clock1 = clock.as_ref().map(|c| *c.borrow());
    let events = world.events_processed() - events0;
    let after_reads = snapshot(&world);

    let mut reads = Vec::new();
    for &h in &drivers {
        let r = world.service::<Reader>(h, READER_PORT).expect("reader");
        errors.extend(r.errors.iter().cloned());
        // A read is at least one round trip to the site's HTTPD.
        let floor = params.link(topo.tier_between(h, r.httpd.host)).latency * 2;
        for x in r.reads.iter().filter(|x| x.ok) {
            if let Err(e) = checks::latency_at_least(x.latency.as_micros(), floor.as_micros()) {
                errors.push(e);
            }
        }
        reads.extend(r.reads.iter().copied());
    }
    let w = world
        .service::<Writer>(drivers[0], WRITER_PORT)
        .expect("writer");
    errors.extend(w.errors.iter().cloned());
    changed += w.changed_bytes;
    writes += w.commits.len() as u64;
    write_failures += w.failed;
    let commits = w.commits.clone();
    let visible = w.visible.clone();
    let (solo_probes, solo_probe_failures) = solo_probes(&world, drivers[0]);
    let probes = w.probes + solo_probes;
    let probe_failures = w.probe_failures + solo_probe_failures;
    let stream_writes = w.commits.len() as u64;
    // Visibility at region 3 needs at least the master→slave one-way
    // trip plus the probe's round trip inside the site.
    let vis_floor = params
        .link(topo.tier_between(gos_hosts[0], gos_hosts[3]))
        .latency
        + params.link(Tier::Site).latency * 2;
    for v in &visible {
        if let Err(e) = checks::latency_at_least(v.as_micros(), vis_floor.as_micros()) {
            errors.push(e);
        }
    }
    let wan = wan_bytes(&world) - wan0;
    let wan_floor = changed * (REGIONS as u64 - 1);
    if let Err(e) = checks::wan_at_least(wan, wan_floor) {
        errors.push(e);
    }

    // Convergence: every site serves the newest version of every file.
    let (final_reads, final_failures) = sweep(
        &mut world,
        &gdn,
        &drivers,
        &versions,
        &files,
        FINAL_PORT,
        &clock,
        &mut errors,
    );

    // The auditor: bounded staleness, read-your-writes and convergence
    // over the whole history.
    let records = optrace::extract(world.trace());
    let mut spec = AuditSpec::strict(cache_ttl);
    spec.converged_after = until;
    for v in audit(&records, &spec) {
        errors.push(format!("auditor: {} at {}: {}", v.rule, v.at, v.detail));
    }

    let reads_ok = reads.len().max(1) as f64;
    let ops = (reads.len() as u64 + stream_writes) as f64;
    let write_count = stream_writes as f64;
    let per_fetch = COUNTERS
        .iter()
        .map(|&k| {
            let d = (after_reads[k] - before_reads[k]) as f64;
            (k, (d - write_count * per_upgrade[k]) / reads_ok)
        })
        .collect();
    let per_op = COUNTERS
        .iter()
        .map(|&k| (k, (after_reads[k] - before_reads[k]) as f64 / ops.max(1.0)))
        .collect();
    let service_time = match (clock1, clock0) {
        (Some(now), Some(c0)) => {
            let mut d = [Duration::ZERO; 5];
            for i in 0..5 {
                d[i] = now[i].saturating_sub(c0[i]);
            }
            d
        }
        _ => [Duration::ZERO; 5],
    };
    let bodies: Vec<Arc<Vec<u8>>> = versions.borrow().files.iter().flatten().cloned().collect();
    let requests = files
        .iter()
        .map(|&(p, f)| HttpRequest::get(&versions.borrow().path(p, f)))
        .collect();
    Ok(Round {
        setup,
        read_wall,
        slice_cpu,
        reads,
        commits,
        visible,
        wan_bytes: wan,
        wan_floor,
        writes,
        write_failures,
        probes,
        probe_failures,
        warm_reads,
        warm_failures,
        final_reads,
        final_failures,
        errors,
        events,
        service_time,
        per_upgrade,
        per_fetch,
        per_op,
        bodies,
        requests,
    })
}

/// Fetches every file once at every site, each site's reads in
/// sequence, and checks that each site serves the newest version.
/// Returns the reads made and how many failed.
#[allow(clippy::too_many_arguments)]
fn sweep(
    world: &mut World,
    gdn: &GdnDeployment,
    drivers: &[HostId],
    versions: &Shared,
    files: &[(usize, usize)],
    port: u16,
    clock: &Option<Clock>,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let topo = world.topology().clone();
    for &h in drivers {
        let mut r = Reader::new(
            gdn.httpd_for(&topo, h),
            Rc::clone(versions),
            1.0,
            SimTime::MAX,
        );
        r.script = Some(files.to_vec());
        let r: Box<dyn Service> = match clock {
            Some(c) => Box::new(Timed {
                inner: Box::new(r),
                layer: layer_of(port),
                clock: Rc::clone(c),
            }),
            None => Box::new(r),
        };
        world.add_service_boxed(h, port, r);
    }
    world.run_for(SimDuration::from_secs(30));
    let (mut reads, mut failures) = (0, 0);
    for &h in drivers {
        let r = world.service::<Reader>(h, port).expect("sweep reader");
        errors.extend(r.errors.iter().cloned());
        if r.seen.len() != files.len() {
            errors.push(format!(
                "sweep at {h:?} fetched {} of {} files",
                r.seen.len(),
                files.len()
            ));
        }
        let v = versions.borrow();
        for &((p, f), got) in &r.seen {
            reads += 1;
            let newest = v.files[v.ids[p][f]].len() - 1;
            match got {
                Some(g) if g == newest => {}
                Some(g) => errors.push(format!(
                    "{} at {h:?} serves version {g}, not the newest {newest}",
                    v.path(p, f)
                )),
                None => failures += 1,
            }
        }
    }
    (reads, failures)
}

fn solo_probes(world: &World, host: HostId) -> (u64, u64) {
    world
        .service::<Writer>(host, SOLO_PORT)
        .map_or((0, 0), |w| (w.probes, w.probe_failures))
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Runs the simulated workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut rounds = Vec::new();
    for _ in 0..MIN_ROUNDS.max(args.seconds / ROUND_SECS) {
        rounds.push(round(args.seed, args.trace)?);
    }
    // Every round ran identical inputs: the simulated figures are the
    // same in each (the world is deterministic), the wall-clock ones are
    // reported as medians.
    for r in &rounds {
        for e in &r.errors {
            report.error(e.clone());
        }
        let failed_reads = r.reads.iter().filter(|x| !x.ok).count() as u64;
        report.ops(
            "sim_read",
            crate::report::OpCount {
                attempted: r.reads.len() as u64,
                failed: failed_reads,
            },
        );
        report.ops(
            "sim_write",
            crate::report::OpCount {
                attempted: r.writes + r.write_failures,
                failed: r.write_failures,
            },
        );
        report.ops(
            "sim_visibility_probe",
            crate::report::OpCount {
                attempted: r.probes,
                failed: r.probe_failures,
            },
        );
        report.ops(
            "sim_warm_read",
            crate::report::OpCount {
                attempted: r.warm_reads,
                failed: r.warm_failures,
            },
        );
        report.ops(
            "sim_final_read",
            crate::report::OpCount {
                attempted: r.final_reads,
                failed: r.final_failures,
            },
        );
    }
    let last = rounds.last().expect("rounds");
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    // The simulation runs on one thread, and every round does the same
    // work slice for slice: each slice's cost is its fastest round's CPU
    // time (see `host`).
    let read_cpu: f64 = (0..last.slice_cpu.len())
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.slice_cpu[i])
                .min()
                .expect("rounds")
                .as_secs_f64()
        })
        .sum();
    let ok_reads = last.reads.iter().filter(|x| x.ok).count() as f64;
    let ok_bytes: usize = last.reads.iter().filter(|x| x.ok).map(|x| x.body).sum();
    let rps = ok_reads / read_cpu;
    let mib_s = ok_bytes as f64 / (1 << 20) as f64 / read_cpu;
    let mut wall_rps: Vec<f64> = rounds
        .iter()
        .map(|r| r.reads.iter().filter(|x| x.ok).count() as f64 / r.read_wall.as_secs_f64())
        .collect();
    let mut lat: Vec<f64> = last
        .reads
        .iter()
        .map(|x| if x.ok { ms(x.latency) } else { f64::INFINITY })
        .collect();
    let mut commits: Vec<f64> = last.commits.iter().map(|&d| ms(d)).collect();
    let mut visible: Vec<f64> = last.visible.iter().map(|&d| ms(d)).collect();

    if !args.trace {
        report.metric("setup_s", median(&mut setups).expect("rounds"), "s");
        report.metric("fetch_p50_ms", midmean(&mut lat), "ms");
        report.metric("fetch_tail_ms", band_mean(&mut lat, 0.85, 0.95), "ms");
        report.metric("fetch_rps", rps, "1/s");
        report.metric("fetch_mib_s", mib_s, "MiB/s");
        report.metric("upgrade_p50_ms", midmean(&mut commits), "ms");
        report.metric("visible_p50_ms", midmean(&mut visible), "ms");
        report.metric("node_rss_mib", own_peak_rss_mib()?, "MiB");
        report.note(
            "sim_wan_mib",
            last.wan_bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
        report.note(
            "sim_wan_floor_mib",
            last.wan_floor as f64 / (1 << 20) as f64,
            "MiB",
        );
        report.note("rounds", rounds.len() as f64, "count");
        report.note(
            "sim_reads_per_wall_s",
            median(&mut wall_rps).expect("rounds"),
            "1/s",
        );
        return Ok(());
    }

    let reads = last.reads.len().max(1) as f64;
    let writes = last.commits.len().max(1) as f64;
    report.metric(
        "rts.invocations_per_fetch",
        last.per_fetch["rts.invocations"],
        "count",
    );
    report.metric(
        "client.ops_per_fetch",
        last.per_fetch["client.ops"],
        "count",
    );
    report.metric(
        "rts.grp.encodes_per_fetch",
        last.per_fetch["rts.grp.encodes"],
        "count",
    );
    report.metric(
        "rts.grp.kib_encoded_per_fetch",
        last.per_fetch["rts.grp.bytes_encoded"] / 1024.0,
        "KiB",
    );
    report.metric(
        "rts.grp.kib_encoded_per_upgrade",
        last.per_upgrade["rts.grp.bytes_encoded"] / 1024.0,
        "KiB",
    );
    report.metric(
        "rts.chunks.fetched_per_upgrade",
        last.per_upgrade["rts.chunks.fetched"],
        "count",
    );
    report.metric(
        "rts.chunks.dedup_hits_per_upgrade",
        last.per_upgrade["rts.chunks.dedup_hits"],
        "count",
    );
    report.metric(
        "rts.persist.stable_puts_per_upgrade",
        last.per_upgrade["rts.persist.stable_puts"],
        "count",
    );
    report.metric(
        "client.retries_per_op",
        last.per_op["client.retries"],
        "count",
    );
    report.metric("rts.rebinds_per_op", last.per_op["rts.rebinds"], "count");
    report.metric(
        "gls.lookups_per_fetch",
        last.per_fetch["gls.node.lookups"],
        "count",
    );
    report.metric(
        "dns.queries_per_fetch",
        last.per_fetch["dns.resolver.queries"],
        "count",
    );
    report.metric(
        "client.hedges_per_op",
        last.per_op["client.hedges"],
        "count",
    );
    report.metric(
        "rts.health.failures_per_op",
        last.per_op["rts.health.failures"],
        "count",
    );
    replay::run_all(&last.bodies, &last.requests, report);
    report.metric("traced.fetch_p50_ms", midmean(&mut lat), "ms");
    report.metric("traced.fetch_rps", rps, "1/s");
    report.metric("traced.upgrade_p50_ms", midmean(&mut commits), "ms");

    // World-only layer figures: service self time per read, and the
    // engine's share (wall time no service accounts for) per event.
    let busy: Duration = last.service_time.iter().sum();
    for (i, name) in LAYERS.iter().enumerate() {
        report.note(
            &format!("sim.svc.{name}_self_us_per_read"),
            last.service_time[i].as_secs_f64() * 1e6 / reads,
            "us",
        );
    }
    report.note("sim.events_per_read", last.events as f64 / reads, "count");
    report.note(
        "sim.engine_ns_per_event",
        last.read_wall.saturating_sub(busy).as_secs_f64() * 1e9 / last.events.max(1) as f64,
        "ns",
    );
    report.note(
        "sim.grp.kib_per_write",
        last.per_upgrade["rts.grp.bytes_encoded"] / 1024.0,
        "KiB",
    );
    report.note(
        "sim.client.rotations_per_op",
        last.per_op["rts.health.rotations"],
        "count",
    );
    report.note("sim.writes_per_round", writes, "count");
    Ok(())
}

/// The simulation's quantiles: the mean of the values between two
/// quantiles (`0.4..0.6` for the median, `0.85..0.95` for p90).
/// Simulated latencies sit on a few exact values, one per path and
/// chunk count, so a plain quantile either repeats exactly from seed to
/// seed or jumps between two of them; a band's mean moves smoothly with
/// the mix.
fn band_mean(v: &mut [f64], lo: f64, hi: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let a = ((n as f64 * lo) as usize).min(n.saturating_sub(1));
    let b = ((n as f64 * hi).ceil() as usize).clamp(a + 1, n.max(a + 1));
    let band = &v[a..b.min(n)];
    band.iter().sum::<f64>() / band.len().max(1) as f64
}

fn midmean(v: &mut [f64]) -> f64 {
    band_mean(v, 0.4, 0.6)
}

/// This process's peak resident set (the simulated nodes all live in
/// it), in MiB.
fn own_peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
