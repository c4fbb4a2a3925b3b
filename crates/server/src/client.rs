//! Blocking campaign client: the other end of [`crate::http`].
//!
//! [`http_request`] and [`http_request_full`] speak the same HTTP/1.1
//! subset the server parses (one request per connection, `Content-Length`
//! bodies). [`Client`] wraps the campaign API on top of them: submit a
//! grid, wait for it to settle, fetch its result digests, read `/stats`,
//! shut the server down. Every failure — transport, an unexpected status,
//! a malformed reply — is an `Err`, so a test can `expect` it and a
//! self-check can report it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use flexsim::decode_result;
use flexsim::jsonio::{parse, Json};

use crate::grid::SweepGrid;
use crate::http::bad_input;

/// Blocking HTTP client for the campaign API: sends one request, reads
/// the full response (the server closes the connection after it).
/// Returns `(status, body)`.
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let (status, _, payload) = http_request_full(addr, method, path, body)?;
    Ok((status, payload))
}

/// Full client response: `(status, lowercase headers, body)`.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// [`http_request`] that also returns the response headers as
/// lowercase-name `(name, value)` pairs — [`Client::results`] reads
/// `x-job-complete` from them.
pub fn http_request_full(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<FullResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: campaign\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| bad_input("non-UTF-8 response"))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad_input("truncated response"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_input("bad status line"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Ok((status, headers, payload.to_string()))
}

/// Calls `check` every `every` until it yields a value or an error. Past
/// `timeout` it fails with `TimedOut`, naming `what` it waited for.
pub(crate) fn poll_until<T>(
    timeout: Duration,
    every: Duration,
    what: &str,
    mut check: impl FnMut() -> io::Result<Option<T>>,
) -> io::Result<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = check()? {
            return Ok(v);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("gave up on {what} after {timeout:?}"),
            ));
        }
        std::thread::sleep(every);
    }
}

/// One job's results stream, decoded.
#[derive(Clone, Debug)]
pub struct JobResults {
    /// The server's `X-Job-Complete` header: `false` while the job still
    /// runs, so the stream is a partial snapshot.
    pub complete: bool,
    /// Result digest per config index; empty for a slot with no record.
    pub digests: Vec<String>,
}

/// The campaign API of one server.
#[derive(Clone, Copy, Debug)]
pub struct Client(pub SocketAddr);

fn unexpected(what: &str, status: u16, body: &str) -> io::Error {
    io::Error::other(format!("{what} returned HTTP {status}: {body}"))
}

impl Client {
    /// `POST /jobs`; returns the new job's id.
    pub fn submit(&self, grid: &SweepGrid) -> io::Result<u64> {
        let (status, body) =
            http_request(self.0, "POST", "/jobs", Some(&grid.to_json().to_string()))?;
        if status != 200 {
            return Err(unexpected("submit", status, &body));
        }
        parse(&body)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .ok_or_else(|| bad_input(&format!("submit reply lacks an id: {body}")))
    }

    /// Polls `GET /jobs/:id` until its state is `done` and returns that
    /// status. A 404 is retried until `timeout`: a fleet member learns of
    /// a job submitted through a sibling only on its next scan. Any other
    /// non-200 fails at once.
    pub fn wait_done(&self, id: u64, timeout: Duration) -> io::Result<Json> {
        let path = format!("/jobs/{id}");
        poll_until(timeout, Duration::from_millis(50), &path, || {
            let (status, body) = http_request(self.0, "GET", &path, None)?;
            match status {
                200 => {
                    let v = parse(&body).map_err(|e| bad_input(&format!("job status: {e}")))?;
                    Ok((v.get("state").and_then(Json::as_str) == Some("done")).then_some(v))
                }
                404 => Ok(None),
                _ => Err(unexpected(&path, status, &body)),
            }
        })
    }

    /// `GET /jobs/:id/results` for a job of `n` configs. Every streamed
    /// line must be a whole record with an in-range, not yet seen index
    /// and a decodable result.
    pub fn results(&self, id: u64, n: usize) -> io::Result<JobResults> {
        let (status, headers, stream) =
            http_request_full(self.0, "GET", &format!("/jobs/{id}/results"), None)?;
        if status != 200 {
            return Err(unexpected("results", status, &stream));
        }
        let complete = headers
            .iter()
            .any(|(k, v)| k == "x-job-complete" && v == "true");
        let mut digests = vec![String::new(); n];
        for line in stream.lines().filter(|l| !l.trim().is_empty()) {
            let v = parse(line).map_err(|e| bad_input(&format!("result line: {e}")))?;
            let idx = v
                .get("index")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad_input("result line lacks an index"))?;
            let slot = usize::try_from(idx)
                .ok()
                .and_then(|i| digests.get_mut(i))
                .ok_or_else(|| bad_input(&format!("result index {idx} outside 0..{n}")))?;
            if !slot.is_empty() {
                return Err(bad_input(&format!("result index {idx} streamed twice")));
            }
            let result = v
                .get("result")
                .ok_or_else(|| bad_input("result line lacks a result"))?;
            *slot = decode_result(result)
                .map_err(|e| bad_input(&format!("undecodable result {idx}: {e}")))?
                .digest();
        }
        Ok(JobResults { complete, digests })
    }

    /// Reads one `u64` leaf of `GET /stats` by key path, e.g.
    /// `&["cache", "hits"]`.
    pub fn stat(&self, path: &[&str]) -> io::Result<u64> {
        let (status, body) = http_request(self.0, "GET", "/stats", None)?;
        if status != 200 {
            return Err(unexpected("stats", status, &body));
        }
        let v = parse(&body).map_err(|e| bad_input(&format!("stats: {e}")))?;
        path.iter()
            .try_fold(&v, |cur, key| cur.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| bad_input(&format!("stats lacks u64 `{}`: {body}", path.join("."))))
    }

    /// `POST /shutdown`: the server finishes in-flight configs and exits.
    pub fn shutdown(&self) -> io::Result<()> {
        let (status, body) = http_request(self.0, "POST", "/shutdown", None)?;
        if status != 200 {
            return Err(unexpected("shutdown", status, &body));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, respond_with_headers, Request};
    use flexsim::{encode_result, run, RunConfig};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    type Reply = (u16, Vec<(&'static str, &'static str)>, String);

    /// Serves one canned reply per entry, in order, to successive
    /// connections. Joining the thread yields the requests it read.
    fn fake_server(replies: Vec<Reply>) -> (Client, JoinHandle<Vec<Request>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client(listener.local_addr().unwrap());
        let server = std::thread::spawn(move || {
            let serve = |(status, headers, body): Reply| {
                let (mut stream, _) = listener.accept().unwrap();
                let req = read_request(&stream).unwrap();
                let body = body.as_bytes();
                respond_with_headers(&mut stream, status, "application/json", &headers, body)
                    .unwrap();
                req
            };
            replies.into_iter().map(serve).collect()
        });
        (client, server)
    }

    #[test]
    fn request_and_response_round_trip() {
        let (client, server) = fake_server(vec![
            (200, vec![], "{\"ok\":true}".to_string()),
            (404, vec![("X-Job-Complete", "false")], "nope".to_string()),
        ]);
        let reply = http_request(client.0, "POST", "/jobs?verbose=1", Some("{\"x\":1}"));
        assert_eq!(reply.unwrap(), (200, "{\"ok\":true}".to_string()));
        let (status, headers, body) = http_request_full(client.0, "GET", "/stats", None).unwrap();
        assert_eq!((status, body.as_str()), (404, "nope"));
        assert!(headers.contains(&("x-job-complete".to_string(), "false".to_string())));
        let requests = server.join().unwrap();
        let post = &requests[0];
        assert_eq!(
            (post.method.as_str(), post.path.as_str()),
            ("POST", "/jobs")
        );
        assert_eq!(post.body, b"{\"x\":1}");
        assert_eq!(requests[1].method, "GET");
        assert!(requests[1].body.is_empty());
    }

    #[test]
    fn results_reject_out_of_range_and_duplicate_indices() {
        let mut cfg = RunConfig::small_default();
        cfg.warmup = 20;
        cfg.measure = 50;
        let result = encode_result(&run(&cfg)).to_string();
        let line = |i: u64| format!("{{\"index\":{i},\"result\":{result}}}\n");
        let complete = vec![("X-Job-Complete", "true")];
        let (client, server) = fake_server(vec![
            (200, complete.clone(), line(1) + &line(0)),
            (200, complete.clone(), line(0) + &line(2)),
            (200, complete.clone(), line(1) + &line(1)),
            (200, vec![("X-Job-Complete", "false")], line(1)),
        ]);
        let full = client.results(7, 2).unwrap();
        assert!(full.complete);
        assert!(full.digests.iter().all(|d| !d.is_empty()));
        let err = client.results(7, 2).unwrap_err();
        assert!(err.to_string().contains("index 2 outside"), "{err}");
        let err = client.results(7, 2).unwrap_err();
        assert!(err.to_string().contains("streamed twice"), "{err}");
        let partial = client.results(7, 2).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.digests[0], "");
        assert_eq!(partial.digests[1], full.digests[1]);
        server.join().unwrap();
    }

    #[test]
    fn wait_done_retries_not_found_then_returns_done_status() {
        let running = "{\"state\":\"running\"}".to_string();
        let done = "{\"state\":\"done\",\"completed\":4}".to_string();
        let (client, server) = fake_server(vec![
            (404, vec![], "{\"error\":\"no such job\"}".to_string()),
            (200, vec![], running),
            (200, vec![], done),
        ]);
        let status = client.wait_done(3, Duration::from_secs(30)).unwrap();
        assert_eq!(status.get("completed").and_then(Json::as_u64), Some(4));
        server.join().unwrap();
    }

    #[test]
    fn wait_done_fails_at_once_on_server_error() {
        let (client, server) = fake_server(vec![(500, vec![], "{\"error\":\"boom\"}".to_string())]);
        let started = Instant::now();
        let err = client.wait_done(3, Duration::from_secs(30)).unwrap_err();
        assert!(err.to_string().contains("HTTP 500"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no retry on 500"
        );
        server.join().unwrap();
    }
}
