//! A plain TCP client for a node's HTTPD, speaking the transport's wire
//! framing (hello frame naming the caller, one length-prefixed frame per
//! message), with its own socket calls timed: connect, request written
//! to first response byte, and first to last byte.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gdn_core::{HttpRequest, HttpResponse};
use globe_net::tcp::frame_into;

/// Client-side timings of one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// `connect()` until the socket is established.
    pub connect: Duration,
    /// Request written until the first byte of the response arrived.
    pub ttfb: Duration,
    /// First response byte until the last.
    pub transfer: Duration,
}

/// A fetched response.
pub struct Fetched {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Socket timings.
    pub timings: Timings,
}

/// Fetches `path` from the HTTPD at `addr`, introducing the caller with
/// `hello` (an encoded source endpoint). One connection per request:
/// the HTTPD closes it after its response.
pub fn get(addr: SocketAddr, hello: &[u8], path: &str) -> Result<Fetched, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let t1 = Instant::now();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let request = HttpRequest::get(path);
    let mut out = Vec::with_capacity(hello.len() + request.len() + 8);
    frame_into(&mut out, hello);
    frame_into(&mut out, &request);
    stream
        .write_all(&out)
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let t2 = Instant::now();
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len[..1])
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let t3 = Instant::now();
    stream
        .read_exact(&mut len[1..])
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let n = u32::from_be_bytes(len) as usize;
    let mut msg = vec![0u8; n];
    stream
        .read_exact(&mut msg)
        .map_err(|e| format!("read {n}-byte response from {addr}: {e}"))?;
    let t4 = Instant::now();
    let resp = HttpResponse::parse(&msg).ok_or("malformed HTTP response")?;
    Ok(Fetched {
        status: resp.status,
        body: resp.body,
        timings: Timings {
            connect: t1 - t0,
            ttfb: t3 - t2,
            transfer: t4 - t3,
        },
    })
}

/// The request path for a package listing or one file.
pub fn path_for(pkg_name: &str, file: Option<&str>) -> String {
    match file {
        Some(f) => format!("/pkg{pkg_name}?file={f}"),
        None => format!("/pkg{pkg_name}"),
    }
}
