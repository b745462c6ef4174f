//! The real-socket workloads: two `gdn-node serve` processes (master
//! and slave object server, each with its HTTPD, `auth-encrypt`
//! between nodes) read through both HTTPDs by at most two load threads
//! with one connection each, while the benchmark's own moderator
//! session writes upgrades.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use gdn_core::{ModOp, ObjectId, Scenario};
use globe_net::tcp::encode_source;
use globe_net::{ports, Endpoint, HostId};
use globe_rts::PropagationMode;
use globe_sim::Rng;
use globe_workloads::ZipfSampler;

use crate::checks::{self, Monotonic};
use crate::client::{self, Timings};
use crate::cluster::{Cluster, ClusterCfg, Ports, DRIVER};
use crate::driver::Driver;
use crate::host::better_half;
use crate::inputs::{self, MixSpec, PackageGen, Target};
use crate::replay;
use crate::report::{OpCount, Report};
use crate::spans::Spans;
use crate::stats::{median, quantile};
use crate::Args;

/// How one real-socket workload is shaped.
pub struct RealSpec {
    /// The package mix.
    pub mix: MixSpec,
    /// Whether packages replicate by chunk announcements (`push_chunks`)
    /// instead of full states.
    pub chunked: bool,
    /// Share of reads that fetch a listing instead of a file.
    pub listing_share: f64,
    /// Offered rate of the open-loop phase, GETs per second across both
    /// load threads.
    pub open_rate: f64,
    /// Upgrades per second in the upgrade phase.
    pub upgrade_rate: f64,
}

/// How many times a run sets the cluster up (median reported).
const SETUPS: usize = 3;
/// Longest a serve process may live in an untraced run: the backstop
/// that ends it even if this process is killed.
const UNTRACED_LIFETIME: Duration = Duration::from_secs(170);
/// Zipf skew of package popularity.
const ZIPF_S: f64 = 0.9;
/// Bytes each upgrade rewrites: one chunk-aligned part of a file.
const UPGRADE_PART: usize = 4096;
/// Quantile reported as `fetch_tail_ms`.
const TAIL_Q: f64 = 0.9;
/// A run is this many cycles of open loop, closed loop and upgrades, so
/// every figure samples the whole run rather than one stretch of it
/// (the host's speed drifts over seconds).
const CYCLES: usize = 7;
/// Share of each cycle spent reading (open loop, then closed loop); the
/// rest is upgrades.
const READ_SHARE: f64 = 0.7;
/// Pause between visibility probes of one upgrade.
const PROBE_GAP: Duration = Duration::from_millis(2);
/// Load threads (and concurrent HTTP connections).
const LOAD_THREADS: usize = 2;

/// A booted, published and warmed cluster.
struct Setup {
    cluster: Cluster,
    driver: Driver,
    oids: Vec<ObjectId>,
    took: Duration,
    /// The slower HTTPD's first served GET (it binds the class).
    first_get: Duration,
}

/// What every reader shares: the HTTPD addresses and every version of
/// every file written so far.
struct Shared {
    httpds: [SocketAddr; 2],
    hello: Vec<u8>,
    names: Vec<String>,
    files: Vec<Vec<String>>,
    listings: Vec<Vec<(String, usize)>>,
    /// Versions per flat file id, oldest first.
    versions: Vec<RwLock<Vec<Arc<Vec<u8>>>>>,
    /// Flat file id of `(package, file)`.
    file_ids: Vec<Vec<usize>>,
}

impl Shared {
    fn new(cfg: &ClusterCfg, mix: &[PackageGen]) -> Shared {
        let mut file_ids = Vec::new();
        let mut versions = Vec::new();
        for pkg in mix {
            let mut ids = Vec::new();
            for f in &pkg.files {
                ids.push(versions.len());
                versions.push(RwLock::new(f.versions.clone()));
            }
            file_ids.push(ids);
        }
        Shared {
            httpds: [
                cfg.addr(HostId(0), ports::HTTP),
                cfg.addr(HostId(1), ports::HTTP),
            ],
            hello: encode_source(Endpoint::new(DRIVER, ports::DRIVER + 2)),
            names: mix.iter().map(|p| p.name.clone()).collect(),
            files: mix
                .iter()
                .map(|p| p.files.iter().map(|f| f.name.clone()).collect())
                .collect(),
            listings: mix.iter().map(PackageGen::listing).collect(),
            versions,
            file_ids,
        }
    }

    fn newest(&self, p: usize, f: usize) -> Arc<Vec<u8>> {
        let versions = self.versions[self.file_ids[p][f]].read().expect("versions");
        Arc::clone(versions.last().expect("published"))
    }

    fn path(&self, t: Target) -> String {
        match t {
            Target::Listing(p) => client::path_for(&self.names[p], None),
            Target::File(p, f) => client::path_for(&self.names[p], Some(&self.files[p][f])),
        }
    }

    /// Fetches `t` through HTTPD `via` and checks the response. `Ok`
    /// carries the body length and timings; `Err(None)` is a failed
    /// request (transport error or non-200 status), `Err(Some(msg))` a
    /// response that is wrong.
    fn read(
        &self,
        t: Target,
        via: usize,
        mono: &mut Monotonic,
    ) -> Result<(usize, Timings, Option<usize>), Option<String>> {
        let path = self.path(t);
        let got = client::get(self.httpds[via], &self.hello, &path).map_err(|e| {
            eprintln!("perfbench: GET {path}: {e}");
            None
        })?;
        if got.status != 200 {
            eprintln!("perfbench: GET {path}: status {}", got.status);
            return Err(None);
        }
        let version = match t {
            Target::Listing(p) => {
                let html = String::from_utf8_lossy(&got.body);
                checks::listing_matches(&html, &self.listings[p])
                    .map_err(|e| Some(format!("{path}: {e}")))?;
                None
            }
            Target::File(p, f) => {
                let id = self.file_ids[p][f];
                let versions = self.versions[id].read().expect("versions").clone();
                let v = match checks::version_of(&versions, &got.body) {
                    Some(v) => v,
                    None => {
                        let newest = versions.last().expect("published");
                        let why = checks::body_matches(newest, &got.body)
                            .err()
                            .unwrap_or_default();
                        return Err(Some(format!("{path}: no version written matches: {why}")));
                    }
                };
                mono.observe(id, v)
                    .map_err(|e| Some(format!("{path}: {e}")))?;
                Some(v)
            }
        };
        Ok((got.body.len(), got.timings, version))
    }
}

/// One finished read.
#[derive(Clone, Copy)]
struct Sample {
    /// Latency from the due time (open loop) or from the start (closed
    /// loop); `None` when the request failed.
    latency: Option<Duration>,
    /// When the request was due (open loop) or started (closed loop).
    due: Instant,
    /// How late the generator started the request.
    late: Duration,
    /// When the response was complete.
    done: Instant,
    body: usize,
    timings: Timings,
    listing: bool,
}

/// The draw of read targets: Zipf over packages, then a listing or a
/// uniformly chosen file.
struct Draw {
    zipf: ZipfSampler,
    listing_share: f64,
    files: Vec<usize>,
}

impl Draw {
    fn next(&self, rng: &mut Rng) -> Target {
        let p = self.zipf.sample(rng);
        if rng.gen_f64() < self.listing_share {
            Target::Listing(p)
        } else {
            Target::File(p, rng.gen_index(self.files[p]))
        }
    }
}

/// A load thread's results.
struct ThreadOut {
    samples: Vec<Sample>,
    errors: Vec<String>,
    spans: Spans,
}

/// Runs one load thread of a phase. Open loop (`rate` is `Some`): this
/// thread owns every `LOAD_THREADS`th slot of a fixed schedule and
/// times each request from its due time. Closed loop: back-to-back
/// requests until `end`.
#[allow(clippy::too_many_arguments)]
fn load_thread(
    shared: &Shared,
    draw: &Draw,
    seed: u64,
    thread: usize,
    start: Instant,
    end: Instant,
    rate: Option<f64>,
    mut spans: Spans,
    req_base: u64,
) -> ThreadOut {
    let mut rng = Rng::new(seed ^ (thread as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut mono = Monotonic::default();
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut k = thread as u64;
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    loop {
        let due = match rate {
            Some(r) => start + Duration::from_secs_f64(k as f64 / r),
            None => Instant::now(),
        };
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let t = draw.next(&mut rng);
        let began = Instant::now();
        let via = (k as usize / LOAD_THREADS + thread) % 2;
        let result = shared.read(t, via, &mut mono);
        let done = Instant::now();
        let req = req_base + k;
        let (latency, body, timings) = match result {
            Ok((body, timings, _)) => (Some(done - due), body, timings),
            Err(e) => {
                if let Some(msg) = e {
                    errors.push(msg);
                }
                (None, 0, Timings::default())
            }
        };
        if latency.is_some() {
            let c = began + timings.connect;
            let w = done - timings.transfer - timings.ttfb;
            let f = done - timings.transfer;
            spans.record(req, "fetch", None, began, done);
            spans.record(req, "net.connect", Some("fetch"), began, c);
            spans.record(req, "net.ttfb", Some("fetch"), w, f);
            spans.record(req, "net.transfer", Some("fetch"), f, done);
        }
        samples.push(Sample {
            latency,
            due,
            late: began.saturating_duration_since(due),
            done,
            body,
            timings,
            listing: matches!(t, Target::Listing(_)),
        });
        k += if rate.is_some() {
            LOAD_THREADS as u64
        } else {
            1
        };
    }
    ThreadOut {
        samples,
        errors,
        spans,
    }
}

/// Publish ops for the mix: every package master/slave on the two
/// object servers.
fn publish_ops(mix: &[PackageGen], chunked: bool) -> Vec<ModOp> {
    let replicas = vec![
        Endpoint::new(HostId(0), ports::GOS_CTL),
        Endpoint::new(HostId(1), ports::GOS_CTL),
    ];
    let mode = if chunked {
        PropagationMode::PushChunks
    } else {
        PropagationMode::PushState
    };
    mix.iter()
        .map(|p| ModOp::Publish {
            name: p.name.clone(),
            description: format!("benchmark package {}", p.name),
            files: p
                .files
                .iter()
                .map(|f| (f.name.clone(), f.versions[0].as_ref().clone()))
                .collect(),
            scenario: Scenario::master_slave(replicas.clone(), mode),
        })
        .collect()
}

/// Boots a cluster, publishes the mix and waits until every package's
/// listing is served correctly through both HTTPDs.
fn set_up(
    args: &Args,
    ports_: &mut Ports,
    mix: &[PackageGen],
    chunked: bool,
    lifetime: Duration,
    tag: &str,
) -> Result<Setup, String> {
    let layout = ports_.take()?;
    let cfg = ClusterCfg {
        seed: args.seed,
        layout,
        path: args.work_dir.join(format!("cluster-{tag}.conf")),
    };
    let t0 = Instant::now();
    let cluster = Cluster::boot(&args.node_bin, cfg.clone(), lifetime)?;
    let mut driver = Driver::start(&cfg, publish_ops(mix, chunked));
    let oids = driver.wait_published(Duration::from_secs(60))?;
    let shared = Shared::new(&cfg, mix);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut mono = Monotonic::default();
    let mut first_get = Duration::ZERO;
    for (p, pkg) in mix.iter().enumerate() {
        for via in 0..2 {
            loop {
                let began = Instant::now();
                match shared.read(Target::Listing(p), via, &mut mono) {
                    Ok(_) => {
                        // The first served GET per HTTPD binds the
                        // package class (and pays its load delay).
                        if p == 0 {
                            first_get = first_get.max(began.elapsed());
                        }
                        break;
                    }
                    Err(Some(e)) => return Err(format!("set-up: {e}")),
                    Err(None) if Instant::now() < deadline => {
                        driver.pump(Duration::from_millis(20));
                    }
                    Err(None) => {
                        return Err(format!(
                            "set-up: {} not fetchable through HTTPD {via} after 30 s",
                            pkg.name
                        ))
                    }
                }
            }
        }
    }
    let took = t0.elapsed();
    Ok(Setup {
        cluster,
        driver,
        oids,
        took,
        first_get,
    })
}

/// Fetches every file once through both HTTPDs, untimed: binds, class
/// loads and caches settle before anything is measured, and every
/// published body is checked.
fn warm(shared: &Shared, report: &mut Report) {
    let mut mono = Monotonic::default();
    for p in 0..shared.names.len() {
        for f in 0..shared.files[p].len() {
            for via in 0..2 {
                match shared.read(Target::File(p, f), via, &mut mono) {
                    Ok(_) => report.op("warm_fetch", true),
                    Err(e) => {
                        report.op("warm_fetch", false);
                        if let Some(msg) = e {
                            report.error(msg);
                        }
                    }
                }
            }
        }
    }
}

/// The upgrade stream's results.
#[derive(Default)]
struct Upgrades {
    /// Time to the commit acknowledgement per upgrade.
    commit: Vec<Timed>,
    /// Time until the slave served the new bytes, per upgrade.
    visible: Vec<Timed>,
    count: OpCount,
    probes: OpCount,
    errors: Vec<String>,
    touched: Vec<(usize, usize)>,
}

/// Streams upgrades at `rate` from `start` until `end` through the
/// driver's moderator session. Each upgrade is timed to its commit
/// acknowledgement, then the slave's HTTPD is polled until it serves
/// the new bytes.
#[allow(clippy::too_many_arguments)]
fn upgrade_stream(
    driver: &mut Driver,
    shared: &Shared,
    mix: &[PackageGen],
    oids: &[ObjectId],
    spec: &RealSpec,
    seed: u64,
    k: &mut u64,
    start: Instant,
    end: Instant,
    spans: &mut Spans,
) -> Upgrades {
    let mut out = Upgrades::default();
    let mut mono = Monotonic::default();
    let files = inputs::all_files(mix);
    let mut n = 0u64;
    loop {
        let due = start + Duration::from_secs_f64(n as f64 / spec.upgrade_rate);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            driver.pump(due - now);
        }
        let up = inputs::upgrade(&files, |p, f| shared.newest(p, f), seed, *k, UPGRADE_PART);
        let id = shared.file_ids[up.pkg][up.file];
        // The new version is known to readers before it can be served.
        shared.versions[id]
            .write()
            .expect("versions")
            .push(Arc::clone(&up.data));
        let want = shared.versions[id].read().expect("versions").len() - 1;
        let file_name = shared.files[up.pkg][up.file].clone();
        let issued = Instant::now();
        let req = 1 << 40 | *k;
        match driver.upgrade(
            oids[up.pkg],
            &file_name,
            up.data.as_ref().clone(),
            Duration::from_secs(20),
        ) {
            Ok(took) => {
                out.count.attempted += 1;
                out.commit.push(Timed {
                    at: issued,
                    ms: took.as_secs_f64() * 1e3,
                    bytes: up.data.len(),
                });
                spans.record(
                    req,
                    "upgrade.commit",
                    Some("upgrade"),
                    issued,
                    Instant::now(),
                );
            }
            Err(e) => {
                out.count.attempted += 1;
                out.count.failed += 1;
                eprintln!("perfbench: {e}");
                *k += 1;
                n += 1;
                continue;
            }
        }
        out.touched.push((up.pkg, up.file));
        let committed = Instant::now();
        let deadline = committed + Duration::from_secs(20);
        loop {
            out.probes.attempted += 1;
            match shared.read(Target::File(up.pkg, up.file), 1, &mut mono) {
                Ok((_, _, Some(v))) if v >= want => {
                    let seen = Instant::now();
                    out.visible.push(Timed {
                        at: issued,
                        ms: (seen - issued).as_secs_f64() * 1e3,
                        bytes: up.data.len(),
                    });
                    spans.record(req, "upgrade.visible", Some("upgrade"), committed, seen);
                    spans.record(req, "upgrade", None, issued, seen);
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    out.probes.failed += 1;
                    if let Some(msg) = e {
                        out.errors.push(msg);
                        break;
                    }
                }
            }
            if Instant::now() > deadline {
                out.errors
                    .push(format!("upgrade {} never became visible at the slave", *k));
                break;
            }
            // Each probe is a whole-file GET: a short pause between them
            // keeps the poll from saturating the slave it waits on.
            driver.pump(PROBE_GAP);
        }
        *k += 1;
        n += 1;
    }
    out
}

/// After the run: both HTTPDs must serve the newest version of every
/// file an upgrade touched.
fn final_check(shared: &Shared, touched: &[(usize, usize)], report: &mut Report) {
    let mut seen = std::collections::BTreeSet::new();
    for &(p, f) in touched {
        if !seen.insert((p, f)) {
            continue;
        }
        let id = shared.file_ids[p][f];
        let newest = shared.versions[id].read().expect("versions").len() - 1;
        for via in 0..2 {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let mut mono = Monotonic::default();
                match shared.read(Target::File(p, f), via, &mut mono) {
                    Ok((_, _, Some(v))) if v == newest => {
                        report.op("final_fetch", true);
                        break;
                    }
                    Err(Some(e)) => {
                        report.op("final_fetch", true);
                        report.error(e);
                        break;
                    }
                    _ if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        report.op("final_fetch", false);
                        report.error(format!(
                            "{}: HTTPD {via} does not serve the final version",
                            shared.path(Target::File(p, f))
                        ));
                        break;
                    }
                }
            }
        }
    }
}

/// Everything the measured phases produced.
struct Measured {
    open: Vec<Sample>,
    closed: Vec<Sample>,
    /// Start and length of each closed-loop phase.
    closed_spans: Vec<(Instant, Duration)>,
    upgrades: Upgrades,
    spans: Spans,
}

/// Runs the measured phases on a set-up cluster.
fn measure(
    args: &Args,
    spec: &RealSpec,
    mix: &[PackageGen],
    shared: &Arc<Shared>,
    setup: &mut Setup,
    reads: bool,
) -> Measured {
    let secs = args.seconds as f64;
    let mut spans = Spans::new(Instant::now(), args.trace);
    let cycle = secs / CYCLES as f64;
    let read_len = Duration::from_secs_f64(cycle * READ_SHARE / 2.0);
    let upgrade_len = Duration::from_secs_f64(cycle * (1.0 - READ_SHARE));
    let draw = Arc::new(Draw {
        zipf: ZipfSampler::new(mix.len(), ZIPF_S),
        listing_share: spec.listing_share,
        files: mix.iter().map(|p| p.files.len()).collect(),
    });
    let mut open = Vec::new();
    let mut closed = Vec::new();
    let mut closed_spans = Vec::new();
    let mut errors = Vec::new();
    let mut ups = Upgrades::default();
    let mut k = 0;
    for c in 0..CYCLES as u64 {
        if reads {
            let recorder = spans.fork();
            let mut phase = |rate: Option<f64>, base: u64, into: &mut Vec<Sample>| {
                let start = Instant::now();
                let handles: Vec<_> = (0..LOAD_THREADS)
                    .map(|th| {
                        let shared = Arc::clone(shared);
                        let draw = Arc::clone(&draw);
                        let thread_spans = recorder.fork();
                        let seed = args.seed ^ base;
                        std::thread::spawn(move || {
                            load_thread(
                                &shared,
                                &draw,
                                seed,
                                th,
                                start,
                                start + read_len,
                                rate,
                                thread_spans,
                                base + ((th as u64) << 32),
                            )
                        })
                    })
                    .collect();
                for h in handles {
                    let out = h.join().expect("load thread panicked");
                    into.extend(out.samples);
                    errors.extend(out.errors);
                    spans.merge(out.spans);
                }
                start
            };
            phase(Some(spec.open_rate), (1 << 48) | (c << 40), &mut open);
            let start = phase(None, (2 << 48) | (c << 40), &mut closed);
            closed_spans.push((start, read_len));
        }
        // Upgrades run with the readers idle, so commit and visibility
        // times are not at the mercy of the readers' load.
        let start = Instant::now();
        let more = upgrade_stream(
            &mut setup.driver,
            shared,
            mix,
            &setup.oids,
            spec,
            args.seed,
            &mut k,
            start,
            start + upgrade_len,
            &mut spans,
        );
        ups.commit.extend(more.commit);
        ups.visible.extend(more.visible);
        ups.count.attempted += more.count.attempted;
        ups.count.failed += more.count.failed;
        ups.probes.attempted += more.probes.attempted;
        ups.probes.failed += more.probes.failed;
        ups.touched.extend(more.touched);
        ups.errors.extend(more.errors);
    }
    ups.errors.extend(errors);
    Measured {
        open,
        closed,
        closed_spans,
        upgrades: ups,
        spans,
    }
}

/// The end-to-end figures of one measured cluster.
struct EndToEnd {
    fetch_p50_ms: f64,
    fetch_tail_ms: f64,
    fetch_rps: f64,
    fetch_mib_s: f64,
    upgrade_p50_ms: f64,
    visible_p50_ms: f64,
    late_p99_ms: f64,
}

/// Wall-clock figures are taken per window of this length, from the
/// better half of the windows (see [`host`](crate::host)).
const WINDOW: Duration = Duration::from_millis(500);

fn window_of(t: Instant, start: Instant) -> usize {
    (t.saturating_duration_since(start).as_secs_f64() / WINDOW.as_secs_f64()) as usize
}

/// One timed operation: when it started, how long it took and how many
/// bytes it moved.
#[derive(Clone, Copy)]
struct Timed {
    at: Instant,
    ms: f64,
    bytes: usize,
}

/// Bytes that cost about as much as one request's fixed work (a small
/// GET takes ≈0.7 ms, a large one ≈0.03 ms per KiB).
const FIXED_COST_BYTES: f64 = 24.0 * 1024.0;

/// The times of `items` from the better half of their windows. A
/// window is ranked by its time per unit of work (time over bytes plus
/// a fixed cost per operation), so the ranking follows the host's speed
/// rather than which files a window happened to draw.
fn faster_windows(items: &[Timed]) -> Vec<f64> {
    let Some(start) = items.iter().map(|t| t.at).min() else {
        return Vec::new();
    };
    let mut windows: Vec<Vec<Timed>> = Vec::new();
    for t in items {
        let w = window_of(t.at, start);
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(*t);
    }
    windows.retain(|w| !w.is_empty());
    let per_work: Vec<f64> = windows
        .iter()
        .map(|w| {
            let ms: f64 = w.iter().map(|t| t.ms).sum();
            let work: f64 = w.iter().map(|t| t.bytes as f64 + FIXED_COST_BYTES).sum();
            ms / work
        })
        .collect();
    windows
        .into_iter()
        .zip(better_half(&per_work))
        .filter(|(_, keep)| *keep)
        .flat_map(|(w, _)| w.into_iter().map(|t| t.ms))
        .collect()
}

/// Completed GETs and body MiB per second over the better half of the
/// closed loop's whole windows (ranked by GETs completed).
fn windowed_throughput(m: &Measured) -> (f64, f64) {
    // Every closed-loop phase, cut into equal windows of about WINDOW
    // (a phase shorter than that is one window).
    let mut windows: Vec<(Instant, Duration)> = Vec::new();
    for &(start, len) in &m.closed_spans {
        let n = ((len.as_secs_f64() / WINDOW.as_secs_f64()) as u32).max(1);
        let w = len / n;
        windows.extend((0..n).map(|i| (start + w * i, w)));
    }
    let mut gets = vec![0.0; windows.len()];
    let mut bytes = vec![0.0; windows.len()];
    for s in m.closed.iter().filter(|s| s.latency.is_some()) {
        if let Some(i) = windows
            .iter()
            .position(|&(a, w)| s.done >= a && s.done < a + w)
        {
            gets[i] += 1.0;
            bytes[i] += s.body as f64;
        }
    }
    let rates: Vec<f64> = gets
        .iter()
        .zip(&windows)
        .map(|(g, (_, w))| -g / w.as_secs_f64())
        .collect();
    let keep = better_half(&rates);
    let kept_secs: f64 = windows
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|((_, w), _)| w.as_secs_f64())
        .sum();
    let total = |v: &[f64]| -> f64 {
        v.iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(x, _)| x)
            .sum::<f64>()
            / kept_secs
    };
    (total(&gets), total(&bytes) / (1 << 20) as f64)
}

fn end_to_end(m: &Measured) -> EndToEnd {
    // A failed request misses every latency limit.
    let open: Vec<Timed> = m
        .open
        .iter()
        .map(|s| Timed {
            at: s.due,
            ms: s.latency.map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3),
            bytes: s.body,
        })
        .collect();
    let mut lat = faster_windows(&open);
    let mut late: Vec<f64> = m.open.iter().map(|s| s.late.as_secs_f64() * 1e3).collect();
    let (fetch_rps, fetch_mib_s) = windowed_throughput(m);
    EndToEnd {
        fetch_p50_ms: median(&mut lat).unwrap_or(f64::NAN),
        fetch_tail_ms: quantile(&mut lat, TAIL_Q).unwrap_or(f64::NAN),
        fetch_rps,
        fetch_mib_s,
        upgrade_p50_ms: median(&mut faster_windows(&m.upgrades.commit)).unwrap_or(f64::NAN),
        visible_p50_ms: median(&mut faster_windows(&m.upgrades.visible)).unwrap_or(f64::NAN),
        late_p99_ms: quantile(&mut late, 0.99).unwrap_or(f64::NAN),
    }
}

/// Counts the measured operations into the report and records every
/// wrong response as a correctness failure.
fn account(m: &Measured, report: &mut Report) {
    for s in m.open.iter().chain(&m.closed) {
        report.op(
            if s.listing { "listing" } else { "fetch" },
            s.latency.is_some(),
        );
    }
    report.ops("upgrade", m.upgrades.count);
    report.ops("visibility_probe", m.upgrades.probes);
    for e in &m.upgrades.errors {
        report.error(e.clone());
    }
}

/// Bodies and request lines of the mix, for the layer replays.
fn replay_inputs(shared: &Shared, mix: &[PackageGen]) -> (Vec<Arc<Vec<u8>>>, Vec<Vec<u8>>) {
    let bodies: Vec<Arc<Vec<u8>>> = mix
        .iter()
        .flat_map(|p| p.files.iter().map(|f| Arc::clone(&f.versions[0])))
        .collect();
    let mut requests = Vec::new();
    for (p, pkg) in mix.iter().enumerate() {
        requests.push(gdn_core::HttpRequest::get(&shared.path(Target::Listing(p))));
        for f in 0..pkg.files.len() {
            requests.push(gdn_core::HttpRequest::get(&shared.path(Target::File(p, f))));
        }
    }
    (bodies, requests)
}

/// Runs a real-socket workload.
pub fn run(spec: &RealSpec, args: &Args, report: &mut Report) -> Result<(), String> {
    let mix = inputs::mix(&spec.mix, args.seed);
    let mut ports_ = Ports::new();
    if !args.trace {
        let mut setups = Vec::new();
        let mut kept = None;
        for i in 0..SETUPS {
            // Earlier clusters are dropped (killed) before the next boots.
            drop(kept.take());
            let mut s = set_up(
                args,
                &mut ports_,
                &mix,
                spec.chunked,
                UNTRACED_LIFETIME,
                &format!("s{i}"),
            )?;
            setups.push(s.took.as_secs_f64());
            s.cluster.check_alive()?;
            kept = Some(s);
        }
        let mut setup = kept.expect("at least one set-up");
        let shared = Arc::new(Shared::new(&setup.cluster.cfg, &mix));
        warm(&shared, report);
        let m = measure(args, spec, &mix, &shared, &mut setup, true);
        setup.cluster.check_alive()?;
        account(&m, report);
        let rss_kib = setup.cluster.peak_rss_kib()?;
        final_check(&shared, &m.upgrades.touched, report);
        let e = end_to_end(&m);
        report.metric("setup_s", median(&mut setups).expect("set-ups"), "s");
        report.metric("fetch_p50_ms", e.fetch_p50_ms, "ms");
        report.metric("fetch_tail_ms", e.fetch_tail_ms, "ms");
        report.metric("fetch_rps", e.fetch_rps, "1/s");
        report.metric("fetch_mib_s", e.fetch_mib_s, "MiB/s");
        report.metric("upgrade_p50_ms", e.upgrade_p50_ms, "ms");
        report.metric("visible_p50_ms", e.visible_p50_ms, "ms");
        report.metric("node_rss_mib", rss_kib as f64 / 1024.0, "MiB");
        report.note("generator_late_p99_ms", e.late_p99_ms, "ms");
        report.note("first_get_ms", setup.first_get.as_secs_f64() * 1e3, "ms");
        report.note("open_loop_samples", m.open.len() as f64, "count");
        report.note("upgrades", m.upgrades.commit.len() as f64, "count");
        return Ok(());
    }

    // Traced run. Node counters exist only as exit dumps, so three
    // clusters with one fixed lifetime each: one idle after set-up
    // (background work), one running the workload's phases (traced),
    // one running upgrades alone. Their differences, divided by
    // operations, give per-operation counts.
    let lifetime = Duration::from_secs(args.seconds + 10);
    let mut idle = set_up(args, &mut ports_, &mix, spec.chunked, lifetime, "idle")?;
    let idle_end = idle.cluster.ends_at;
    while Instant::now() < idle_end {
        idle.driver.pump(Duration::from_millis(100));
    }
    let Setup {
        cluster, driver, ..
    } = idle;
    let c_idle = cluster.finish()?;
    drop(driver);

    let mut main = set_up(args, &mut ports_, &mix, spec.chunked, lifetime, "traced")?;
    let shared = Arc::new(Shared::new(&main.cluster.cfg, &mix));
    warm(&shared, report);
    let mut m = measure(args, spec, &mix, &shared, &mut main, true);
    account(&m, report);
    final_check(&shared, &m.upgrades.touched, report);
    if Instant::now() >= main.cluster.ends_at {
        return Err("traced phases outlived the serve processes' lifetime".into());
    }
    let main_end = main.cluster.ends_at;
    while Instant::now() < main_end {
        main.driver.pump(Duration::from_millis(100));
    }
    let Setup {
        cluster, driver, ..
    } = main;
    let c_main = cluster.finish()?;
    drop(driver);

    let mut up = set_up(args, &mut ports_, &mix, spec.chunked, lifetime, "upgrades")?;
    let up_shared = Arc::new(Shared::new(&up.cluster.cfg, &mix));
    let mu = measure(args, spec, &mix, &up_shared, &mut up, false);
    report.ops("upgrade_only", mu.upgrades.count);
    report.ops("visibility_probe", mu.upgrades.probes);
    for e in &mu.upgrades.errors {
        report.error(e.clone());
    }
    let up_end = up.cluster.ends_at;
    while Instant::now() < up_end {
        up.driver.pump(Duration::from_millis(100));
    }
    let Setup {
        cluster, driver, ..
    } = up;
    let c_up = cluster.finish()?;
    drop(driver);

    let e = end_to_end(&m);
    let gets = (m.open.len() + m.closed.len()) as f64;
    let warm_gets = shared.file_ids.iter().map(Vec::len).sum::<usize>() as f64 * 2.0;
    let ups_main = m.upgrades.commit.len() as f64;
    let ups_alone = mu.upgrades.commit.len().max(1) as f64;
    let delta = |c: &BTreeMap<String, u64>, k: &str| {
        c.get(k).copied().unwrap_or(0) as f64 - c_idle.get(k).copied().unwrap_or(0) as f64
    };
    let per_upgrade = |k: &str| delta(&c_up, k) / ups_alone;
    // Per GET: what the traced cluster did beyond the idle one, minus
    // its upgrades' share (probes included), over every GET it served
    // (warm pass and final check included).
    let final_gets = {
        let mut t = m.upgrades.touched.clone();
        t.sort();
        t.dedup();
        t.len() as f64 * 2.0
    };
    let all_gets = gets + warm_gets + final_gets;
    let per_fetch = |k: &str| (delta(&c_main, k) - ups_main * per_upgrade(k)) / all_gets;
    let ops = all_gets + ups_main;
    let per_op = |k: &str| delta(&c_main, k) / ops;

    report.metric(
        "rts.invocations_per_fetch",
        per_fetch("rts.invocations"),
        "count",
    );
    report.metric("client.ops_per_fetch", per_fetch("client.ops"), "count");
    report.metric(
        "rts.grp.encodes_per_fetch",
        per_fetch("rts.grp.encodes"),
        "count",
    );
    report.metric(
        "rts.grp.kib_encoded_per_fetch",
        per_fetch("rts.grp.bytes_encoded") / 1024.0,
        "KiB",
    );
    report.metric(
        "rts.grp.kib_encoded_per_upgrade",
        per_upgrade("rts.grp.bytes_encoded") / 1024.0,
        "KiB",
    );
    report.metric(
        "rts.chunks.fetched_per_upgrade",
        per_upgrade("rts.chunks.fetched"),
        "count",
    );
    report.metric(
        "rts.chunks.dedup_hits_per_upgrade",
        per_upgrade("rts.chunks.dedup_hits"),
        "count",
    );
    report.metric(
        "rts.persist.stable_puts_per_upgrade",
        per_upgrade("rts.persist.stable_puts"),
        "count",
    );
    report.metric("client.retries_per_op", per_op("client.retries"), "count");
    report.metric("rts.rebinds_per_op", per_op("rts.rebinds"), "count");
    report.metric(
        "gls.lookups_per_fetch",
        per_fetch("gls.node.lookups"),
        "count",
    );
    report.metric(
        "dns.queries_per_fetch",
        per_fetch("dns.resolver.queries"),
        "count",
    );
    report.metric("client.hedges_per_op", per_op("client.hedges"), "count");
    report.metric(
        "rts.health.failures_per_op",
        per_op("rts.health.failures"),
        "count",
    );

    let (bodies, requests) = replay_inputs(&shared, &mix);
    replay::run_all(&bodies, &requests, report);

    // Client-side socket timings: only a real-socket run has them.
    let ok: Vec<&Sample> = m
        .open
        .iter()
        .chain(&m.closed)
        .filter(|s| s.latency.is_some())
        .collect();
    let mut connect: Vec<f64> = ok
        .iter()
        .map(|s| s.timings.connect.as_secs_f64() * 1e6)
        .collect();
    let mut ttfb: Vec<f64> = ok
        .iter()
        .map(|s| s.timings.ttfb.as_secs_f64() * 1e6)
        .collect();
    let transfer_us: f64 = ok
        .iter()
        .map(|s| s.timings.transfer.as_secs_f64() * 1e6)
        .sum();
    let mib: f64 = ok.iter().map(|s| s.body as f64).sum::<f64>() / (1 << 20) as f64;
    report.note(
        "net.connect_us",
        median(&mut connect).unwrap_or(f64::NAN),
        "us",
    );
    report.note("net.ttfb_us", median(&mut ttfb).unwrap_or(f64::NAN), "us");
    report.note(
        "net.transfer_us_per_mib",
        transfer_us / mib.max(1e-12),
        "us/MiB",
    );

    // The traced run's own end-to-end numbers, beside the untraced
    // runs' for the tracing overhead.
    report.metric("traced.fetch_p50_ms", e.fetch_p50_ms, "ms");
    report.metric("traced.fetch_rps", e.fetch_rps, "1/s");
    report.metric("traced.upgrade_p50_ms", e.upgrade_p50_ms, "ms");
    let path: PathBuf = args
        .work_dir
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    report.note("trace.spans", m.spans.len() as f64, "count");
    m.spans.write(&path)?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}
