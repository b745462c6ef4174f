//! Real `gdn-node` clusters on loopback: port layouts that cannot
//! collide, the shared config file, spawning and killing the serve
//! processes, and what can be read from them from outside (peak
//! resident set, the counters a node prints when its lifetime ends).

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::{IpAddr, Ipv4Addr, TcpListener, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gdn_core::GdnOptions;
use globe_crypto::gtls::Mode;
use globe_net::{HostId, NodeAddr, Topology, TopologyBuilder};
use globe_sim::SimDuration;

/// Host names in config order: `HostId(0)` is the master's object
/// server, `HostId(1)` the slave's, `HostId(2)` the benchmark's own
/// driver process (moderator session).
pub const HOSTS: [&str; 3] = ["master", "slave", "drv"];
/// The driver host's id.
pub const DRIVER: HostId = HostId(2);

/// Simulated ports a host can bind, each at `base + port`: the
/// well-known service ports, the GNS resolver, the driver range and the
/// GLS directory nodes (`10_000 + 16 * domain + subnode`).
const HOST_PORTS: [u16; 8] = [53, 80, 411, 443, 700, 953, 2112, 5353];
const DRIVER_PORTS: std::ops::Range<u16> = 9000..9016;
const GLS_PORTS: std::ops::Range<u16> = 10_000..10_128;
/// Distance between the port bases of a cluster's hosts.
const SPACING: u16 = 300;
/// First port of the Linux ephemeral range: nothing at or above it is
/// used, so an outgoing connection can never hold a node's port.
const EPHEMERAL_START: u32 = 32768;

fn sim_ports() -> impl Iterator<Item = u16> {
    HOST_PORTS.into_iter().chain(DRIVER_PORTS).chain(GLS_PORTS)
}

fn host_ports(base: u16) -> impl Iterator<Item = u16> {
    sim_ports().map(move |p| base + p)
}

/// Whether a layout starting at `base` still ends below the ephemeral
/// range.
fn fits(base: u16) -> bool {
    u32::from(base) + 2 * u32::from(SPACING) + u32::from(GLS_PORTS.end) < EPHEMERAL_START
}

/// Every real port the two-process test in `crates/gdn-node/tests`
/// can bind: port bases `10_000 + (pid % 90) * 300`, `+ 9_100` and
/// `+ 18_200`. Kept apart so the benchmark and that test can run side
/// by side.
fn two_node_test_ports() -> HashSet<u32> {
    let mut used = HashSet::new();
    for i in 0..90u32 {
        let b = 10_000 + i * 300;
        for base in [b, b + 9_100, b + 18_200] {
            for p in sim_ports() {
                used.insert(base + u32::from(p));
            }
        }
    }
    used
}

/// Port bases of one cluster's three hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Base per host, in [`HOSTS`] order.
    pub bases: [u16; 3],
}

impl Layout {
    fn at(base: u16) -> Layout {
        Layout {
            bases: [base, base + SPACING, base + 2 * SPACING],
        }
    }

    fn ports(&self) -> Vec<u16> {
        self.bases.iter().flat_map(|&b| host_ports(b)).collect()
    }

    /// Whether every port of the layout lies below the ephemeral range,
    /// above the privileged one, clear of the two-process test's ports
    /// and distinct across hosts.
    fn well_placed(&self, test_ports: &HashSet<u32>) -> bool {
        let ports = self.ports();
        let distinct: HashSet<u16> = ports.iter().copied().collect();
        distinct.len() == ports.len()
            && ports.iter().all(|&p| {
                p >= 1024 && u32::from(p) < EPHEMERAL_START && !test_ports.contains(&u32::from(p))
            })
    }

    /// Whether every port can be bound right now (TCP and UDP).
    fn free(&self) -> bool {
        let ip = IpAddr::V4(Ipv4Addr::LOCALHOST);
        self.ports()
            .into_iter()
            .all(|p| TcpListener::bind((ip, p)).is_ok() && UdpSocket::bind((ip, p)).is_ok())
    }
}

/// Hands out well-placed, currently free layouts, never the same one
/// twice in a run (a killed cluster's sockets may linger).
pub struct Ports {
    next: u16,
    test_ports: HashSet<u32>,
}

impl Ports {
    /// Starts the search at the lowest base.
    pub fn new() -> Ports {
        Ports {
            next: 1030,
            test_ports: two_node_test_ports(),
        }
    }

    /// The next free layout.
    pub fn take(&mut self) -> Result<Layout, String> {
        while fits(self.next) {
            let layout = Layout::at(self.next);
            self.next += 1;
            if layout.well_placed(&self.test_ports) && layout.free() {
                return Ok(layout);
            }
        }
        Err("no free port layout below the ephemeral range (ports in use?)".into())
    }
}

/// A cluster's shared configuration: what the config file says, and
/// the same deployment the benchmark's driver process must derive.
#[derive(Clone)]
pub struct ClusterCfg {
    /// Key-material seed.
    pub seed: u64,
    /// Port bases.
    pub layout: Layout,
    /// Where the config file is written.
    pub path: PathBuf,
}

impl ClusterCfg {
    fn text(&self) -> String {
        let mut t = format!(
            "seed {}\nmode auth-encrypt\ngns-secondaries 0\ngns-batch-secs 1\ngns-negative-ttl 2\n",
            self.seed
        );
        for (name, base) in HOSTS.iter().zip(self.layout.bases) {
            t.push_str(&format!("host eu/nl/vu/{name} 127.0.0.1:{base}\n"));
        }
        t.push_str("gos master\ngos slave\n");
        t
    }

    /// The topology and addresses the config file describes (built the
    /// way `gdn-node` parses it: one region, country and site).
    pub fn topology(&self) -> (Topology, BTreeMap<u32, NodeAddr>) {
        let mut b = TopologyBuilder::new();
        let r = b.region("eu");
        let c = b.country(r, "nl");
        let s = b.site(c, "vu");
        let mut addrs = BTreeMap::new();
        for (name, base) in HOSTS.iter().zip(self.layout.bases) {
            let h = b.host(s, name);
            addrs.insert(h.0, NodeAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), base));
        }
        (b.build(), addrs)
    }

    /// The deployment options every process of the cluster derives.
    pub fn options(&self) -> GdnOptions {
        let mut options = GdnOptions {
            tls_mode: Mode::AuthEncrypt,
            cache_ttl: SimDuration::from_secs(60),
            seed: self.seed,
            gos_hosts: vec![HostId(0), HostId(1)],
            ..GdnOptions::default()
        };
        options.gns.gdn_secondaries = 0;
        options.gns.batch_interval = SimDuration::from_secs(1);
        options.gns.negative_ttl = 2;
        options
    }

    /// The real address of `port` on `host`.
    pub fn addr(&self, host: HostId, port: u16) -> std::net::SocketAddr {
        NodeAddr::new(
            IpAddr::V4(Ipv4Addr::LOCALHOST),
            self.layout.bases[host.0 as usize],
        )
        .socket_addr(port)
    }
}

/// One `gdn-node serve` process; killed and reaped when dropped, on
/// every exit path including a panic.
struct Node {
    child: Child,
    host: &'static str,
    stderr: Arc<Mutex<Vec<String>>>,
    readers: Vec<JoinHandle<()>>,
}

impl Node {
    fn stderr_tail(&self) -> String {
        let lines = self.stderr.lock().expect("stderr lines");
        let start = lines.len().saturating_sub(5);
        lines[start..].join(" | ")
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// A booted master + slave pair.
pub struct Cluster {
    /// The shared configuration.
    pub cfg: ClusterCfg,
    nodes: Vec<Node>,
    /// When the serve processes end by themselves.
    pub ends_at: Instant,
}

impl Cluster {
    /// Writes the config file and starts both serve processes, each
    /// with a lifetime of `lifetime` (after which it prints its counters
    /// and exits — also the backstop that ends them should this process
    /// die without cleaning up). Returns once both printed `READY`.
    pub fn boot(node_bin: &Path, cfg: ClusterCfg, lifetime: Duration) -> Result<Cluster, String> {
        std::fs::write(&cfg.path, cfg.text())
            .map_err(|e| format!("write {}: {e}", cfg.path.display()))?;
        let started = Instant::now();
        let (tx, rx) = mpsc::channel::<&'static str>();
        let mut nodes = Vec::new();
        for host in &HOSTS[..2] {
            let mut child = Command::new(node_bin)
                .arg("serve")
                .arg(&cfg.path)
                .arg(host)
                .arg(lifetime.as_secs().max(1).to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", node_bin.display()))?;
            let stdout = child.stdout.take().expect("piped stdout");
            let stderr = child.stderr.take().expect("piped stderr");
            let lines = Arc::new(Mutex::new(Vec::new()));
            let tx = tx.clone();
            let out_reader = std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if line == "READY" {
                        let _ = tx.send(host);
                    }
                }
            });
            let sink = Arc::clone(&lines);
            let err_reader = std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    sink.lock().expect("stderr lines").push(line);
                }
            });
            nodes.push(Node {
                child,
                host,
                stderr: lines,
                readers: vec![out_reader, err_reader],
            });
        }
        drop(tx);
        let mut cluster = Cluster {
            cfg,
            nodes,
            ends_at: started + lifetime,
        };
        let deadline = started + Duration::from_secs(30);
        let mut ready = 0;
        while ready < 2 {
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(_) => ready += 1,
                Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {
                    if let Some(dead) = cluster.exited() {
                        return Err(dead);
                    }
                }
                Err(_) => {
                    return Err(cluster.exited().unwrap_or_else(|| {
                        "serve processes did not print READY within 30 s".into()
                    }))
                }
            }
        }
        Ok(cluster)
    }

    /// A description of the first node that has exited, if any (a port
    /// clash panics the node at bind time, before `READY`).
    fn exited(&mut self) -> Option<String> {
        for n in &mut self.nodes {
            if let Ok(Some(status)) = n.child.try_wait() {
                // Let the stderr reader catch the panic message.
                std::thread::sleep(Duration::from_millis(50));
                return Some(format!(
                    "gdn-node serve {} exited ({status}) during boot; ports {:?}: {}",
                    n.host,
                    self.cfg.layout.bases,
                    n.stderr_tail()
                ));
            }
        }
        None
    }

    /// Fails if a serve process has died.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.exited() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Sum over the serve processes of their peak resident set
    /// (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let mut total = 0;
        for n in &self.nodes {
            let path = format!("/proc/{}/status", n.child.id());
            let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            let kib = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| format!("no VmHWM in {path}"))?;
            total += kib;
        }
        Ok(total)
    }

    /// Waits for both serve processes to reach the end of their
    /// lifetime and returns their summed exit counters.
    pub fn finish(mut self) -> Result<BTreeMap<String, u64>, String> {
        let deadline = self.ends_at + Duration::from_secs(20);
        for n in &mut self.nodes {
            loop {
                match n.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => return Err(format!("serve {} did not exit at its lifetime", n.host)),
                }
            }
            for r in n.readers.drain(..) {
                let _ = r.join();
            }
        }
        let mut counters = BTreeMap::new();
        for n in &self.nodes {
            for line in n.stderr.lock().expect("stderr lines").iter() {
                let Some(rest) = line.strip_prefix("metric ") else {
                    continue;
                };
                if let Some((k, v)) = rest.split_once(" = ") {
                    if let Ok(v) = v.trim().parse::<u64>() {
                        *counters.entry(k.to_owned()).or_insert(0) += v;
                    }
                }
            }
        }
        Ok(counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_avoid_ephemeral_range_and_the_two_node_test() {
        let test_ports = two_node_test_ports();
        let mut found = 0;
        let mut base = 1030u16;
        while fits(base) {
            let l = Layout::at(base);
            if l.well_placed(&test_ports) {
                found += 1;
                for p in l.ports() {
                    assert!(u32::from(p) < EPHEMERAL_START);
                    assert!(!test_ports.contains(&u32::from(p)));
                }
            }
            base += 1;
        }
        assert!(found >= 8, "only {found} layouts");
    }

    #[test]
    fn config_text_names_every_host() {
        let cfg = ClusterCfg {
            seed: 5,
            layout: Layout::at(1030),
            path: PathBuf::from("x.conf"),
        };
        let text = cfg.text();
        assert!(text.contains("host eu/nl/vu/master 127.0.0.1:1030"));
        assert!(text.contains("host eu/nl/vu/drv 127.0.0.1:1630"));
        assert_eq!(cfg.addr(HostId(1), 80).port(), 1410);
    }
}
