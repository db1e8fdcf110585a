//! Minimal HTTP scrape endpoint exposing the metrics registry as
//! Prometheus text exposition.
//!
//! One background thread, one request per connection, `HTTP/1.0` with
//! `Connection: close` — exactly enough protocol for a Prometheus
//! scraper, `curl`, or the `sciml scrape` self-checker, with no HTTP
//! library. Every request, whatever its path, gets the one metrics
//! read-out, [`Telemetry::exposition`]: the whole registry (counters,
//! gauges, histograms as cumulative buckets) with the derived families
//! refreshed first, so misconfigured scrape paths still return data
//! rather than a 404 no one looks at.

use sciml_obs::Telemetry;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the request head we bother reading; a scrape request is a
/// few hundred bytes at most.
const MAX_REQUEST_BYTES: usize = 8192;

/// Running scrape listener. Dropping the handle stops it.
pub struct ScrapeHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeHandle {
    /// Address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Poke the blocked accept() so it observes the flag.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ScrapeHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Serves one scrape: drains the request head (best effort) and writes
/// the exposition body.
fn serve_scrape(mut stream: TcpStream, telemetry: &Telemetry) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // Read until the blank line ending the request head, a limit, or a
    // timeout; scrape clients send no body.
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(buf.get(..n).unwrap_or(&[]));
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = telemetry.exposition();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Binds `addr` (port 0 lets the OS pick) and spawns the scrape
/// thread. Returns the bound address and the stop handle.
pub fn spawn_scrape_listener(
    addr: impl Into<String>,
    telemetry: Telemetry,
) -> io::Result<(SocketAddr, ScrapeHandle)> {
    let listener = TcpListener::bind(addr.into())?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("sciml-scrape".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    serve_scrape(stream, &telemetry);
                }
            })?
    };
    Ok((
        local_addr,
        ScrapeHandle {
            stop,
            addr: local_addr,
            thread: Some(thread),
        },
    ))
}

/// Fetches one scrape over plain TCP and returns the response body.
/// Used by `sciml scrape` and tests, so the repo needs no HTTP client.
pub fn scrape_once(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: sciml\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let Some((head, body)) = response.split_once("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "scrape response has no header/body separator",
        ));
    };
    if !head.starts_with("HTTP/1.0 200") && !head.starts_with("HTTP/1.1 200") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "scrape returned non-200 status: {}",
                head.lines().next().unwrap_or("")
            ),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciml_obs::parse_prometheus;

    #[test]
    fn scrape_returns_parseable_exposition() {
        let telemetry = Telemetry::new();
        telemetry.registry.counter("serve.requests").add(3);
        telemetry.registry.histogram("serve.request_ns").record(777);
        let (addr, handle) = spawn_scrape_listener("127.0.0.1:0", telemetry.clone()).unwrap();
        let body = scrape_once(&addr.to_string()).unwrap();
        let parsed = parse_prometheus(&body).expect("valid exposition");
        assert_eq!(parsed.kind("serve_requests"), Some("counter"));
        assert_eq!(parsed.samples_named("serve_requests")[0].value, "3");
        assert_eq!(parsed.kind("serve_request_ns"), Some("histogram"));
        assert_eq!(parsed.samples_named("serve_request_ns_count")[0].value, "1");
        // The body is the one read-out, derived families included: on a
        // registry nothing records into between the two, `exposition()`
        // byte for byte. (Under `--cfg lockcheck` every lock taken moves
        // the detector's gauges, so their lines are left out there.)
        for family in ["obs_trace_dropped_spans", "codec_simd_dispatch_total"] {
            assert_eq!(parsed.kind(family), Some("gauge"), "{family}");
        }
        let steady = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| !l.contains("analyze_lockcheck"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(steady(&body), steady(&telemetry.exposition()));
        // Second scrape sees counter movement.
        telemetry.registry.counter("serve.requests").add(2);
        let body = scrape_once(&addr.to_string()).unwrap();
        let parsed = parse_prometheus(&body).unwrap();
        assert_eq!(parsed.samples_named("serve_requests")[0].value, "5");
        handle.shutdown();
    }

    #[test]
    fn shutdown_unblocks_the_acceptor() {
        let (addr, handle) = spawn_scrape_listener("127.0.0.1:0", Telemetry::disabled()).unwrap();
        handle.shutdown();
        // The port is released; a fresh listener can take over.
        assert!(TcpListener::bind(addr).is_ok());
    }
}
