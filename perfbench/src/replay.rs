//! Layer replays: the workload's own bodies and request lines pushed
//! through each layer's public functions, timed from outside. Each
//! figure is the median of several batches, every batch long enough to
//! swamp the clock's resolution.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gdn_core::{HttpRequest, HttpResponse};
use globe_crypto::cert::{CertAuthority, Credentials, Role};
use globe_crypto::gtls::{Mode, TlsConfig, TlsEvent, TlsSession};
use globe_crypto::sha256::sha256;
use globe_net::tcp::frame_into;
use globe_rts::chunks::{assemble, new_store, store_chunks};
use globe_rts::{GrpBody, GrpMsg};
use globe_sim::Rng;

use crate::report::Report;
use crate::stats::median;

const BATCHES: usize = 5;
/// Least work per batch.
const BATCH_MIN: Duration = Duration::from_millis(20);

/// Times `work` (one pass over the inputs) in batches of repeated
/// passes; returns the median time of one pass.
fn time_pass(mut work: impl FnMut()) -> Duration {
    // Size a batch so it runs at least BATCH_MIN.
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            work();
        }
        if t.elapsed() >= BATCH_MIN || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let mut per_pass: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                work();
            }
            t.elapsed().as_secs_f64() / f64::from(reps)
        })
        .collect();
    Duration::from_secs_f64(median(&mut per_pass).expect("batches"))
}

fn mib(bodies: &[Arc<Vec<u8>>]) -> f64 {
    bodies.iter().map(|b| b.len() as f64).sum::<f64>() / (1 << 20) as f64
}

fn us_per_mib(bodies: &[Arc<Vec<u8>>], work: impl FnMut()) -> f64 {
    time_pass(work).as_secs_f64() * 1e6 / mib(bodies)
}

/// An established auth-encrypt session pair (mutual, as between GDN
/// hosts).
fn session_pair(ca: &CertAuthority, rng: &mut Rng) -> (TlsSession, TlsSession) {
    let server = Credentials::issue(ca, "gos", Role::Host, 2);
    let client = Credentials::issue(ca, "peer", Role::Host, 3);
    let roots = vec![ca.root_cert().clone()];
    let (mut cs, hello) = TlsSession::client(
        TlsConfig::mutual(Mode::AuthEncrypt, client, roots.clone()),
        rng,
    )
    .expect("client hello");
    let mut ss = TlsSession::server(TlsConfig::mutual(Mode::AuthEncrypt, server, roots));
    let out = ss.on_message(&hello, rng).expect("server hello");
    let out = cs.on_message(&out.replies[0], rng).expect("client finish");
    for reply in out.replies {
        ss.on_message(&reply, rng).expect("server finish");
    }
    (cs, ss)
}

/// Runs every replay and records its metric.
pub fn run_all(bodies: &[Arc<Vec<u8>>], requests: &[Vec<u8>], report: &mut Report) {
    // net: framing a message for the stream and extracting it again.
    let mut buf = Vec::new();
    report.metric(
        "net.frame_us_per_mib",
        us_per_mib(bodies, || {
            for b in bodies {
                buf.clear();
                frame_into(&mut buf, b);
                let n = u32::from_be_bytes(buf[..4].try_into().expect("prefix")) as usize;
                std::hint::black_box(buf[4..4 + n].to_vec());
            }
        }),
        "us/MiB",
    );

    // gdn-core: request parsing and response building.
    let parse = time_pass(|| {
        for r in requests {
            std::hint::black_box(HttpRequest::parse(r));
        }
    });
    report.metric(
        "core.http_parse_ns",
        parse.as_secs_f64() * 1e9 / requests.len() as f64,
        "ns",
    );
    report.metric(
        "core.http_build_us_per_mib",
        us_per_mib(bodies, || {
            for b in bodies {
                std::hint::black_box(HttpResponse::build(200, "application/octet-stream", b));
            }
        }),
        "us/MiB",
    );

    // globe-crypto: digests, sealed records, handshakes.
    report.metric(
        "crypto.sha256_us_per_mib",
        us_per_mib(bodies, || {
            for b in bodies {
                std::hint::black_box(sha256(b));
            }
        }),
        "us/MiB",
    );
    let ca = CertAuthority::new("perfbench-root", 1);
    let mut rng = Rng::new(11);
    let (mut cs, _) = session_pair(&ca, &mut rng);
    report.metric(
        "crypto.gtls_seal_us_per_mib",
        us_per_mib(bodies, || {
            for b in bodies {
                std::hint::black_box(cs.seal(b).expect("seal"));
            }
        }),
        "us/MiB",
    );
    // Opening needs records in sequence from a fresh pair: seal a
    // batch's worth up front, outside the timed region.
    let mut per_mib = Vec::new();
    for _ in 0..BATCHES {
        let (mut cs, mut ss) = session_pair(&ca, &mut rng);
        let records: Vec<Vec<u8>> = bodies.iter().map(|b| cs.seal(b).expect("seal")).collect();
        let t = Instant::now();
        for r in &records {
            let out = ss.on_message(r, &mut rng).expect("open");
            debug_assert!(matches!(out.events.first(), Some(TlsEvent::Data(_))));
            std::hint::black_box(out);
        }
        per_mib.push(t.elapsed().as_secs_f64() * 1e6 / mib(bodies));
    }
    report.metric(
        "crypto.gtls_open_us_per_mib",
        median(&mut per_mib).expect("batches"),
        "us/MiB",
    );
    let handshake = time_pass(|| {
        std::hint::black_box(session_pair(&ca, &mut rng));
    });
    report.metric(
        "crypto.gtls_handshake_us",
        handshake.as_secs_f64() * 1e6,
        "us",
    );

    // globe-rts: GRP frames carrying the bodies, and the chunk store.
    let frames: Vec<GrpMsg> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| GrpMsg {
            oid: 0x00B0_D1E5 + i as u128,
            body: GrpBody::InvokeResult {
                req: i as u64,
                ok: true,
                data: b.as_ref().clone(),
            },
        })
        .collect();
    report.metric(
        "rts.grp.encode_us_per_mib",
        us_per_mib(bodies, || {
            for f in &frames {
                std::hint::black_box(f.encode());
            }
        }),
        "us/MiB",
    );
    let encoded: Vec<Vec<u8>> = frames.iter().map(GrpMsg::encode).collect();
    report.metric(
        "rts.grp.decode_us_per_mib",
        us_per_mib(bodies, || {
            for e in &encoded {
                std::hint::black_box(GrpMsg::decode(e).expect("decode"));
            }
        }),
        "us/MiB",
    );
    report.metric(
        "rts.chunks.split_us_per_mib",
        us_per_mib(bodies, || {
            let store = new_store();
            for b in bodies {
                std::hint::black_box(store_chunks(&store, b));
            }
        }),
        "us/MiB",
    );
    let store = new_store();
    let manifests: Vec<_> = bodies.iter().map(|b| store_chunks(&store, b)).collect();
    report.metric(
        "rts.chunks.assemble_us_per_mib",
        us_per_mib(bodies, || {
            for m in &manifests {
                std::hint::black_box(assemble(&store, m).expect("assemble"));
            }
        }),
        "us/MiB",
    );
}
