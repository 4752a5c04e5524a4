//! The open-loop query client of the serve phase.
//!
//! Requests leave on a fixed schedule over one connection per thread
//! (schedules interleaved), whatever the daemon's response times. A
//! request whose connection was still waiting on an earlier response at
//! its due time is timed from that due time, so a stall is charged to
//! every request it delayed instead of being hidden by a client that
//! politely waited. The generator's own oversleep past a due time is not
//! the daemon's doing: it is left out of the latency and kept beside as
//! lateness.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use harness::json::Json;
use harness::ResultStore;

use crate::report::{Metric, Percentile};

/// The p99 latency limit the ramp holds the daemon to, µs.
pub const LIMIT_US: f64 = 1_000.0;

/// Ramp ladder: ×1.25 per bracketing step, then three bisections of the
/// bracket, so the reported rate is within 1.25^(1/8) ≈ 2.8% of the
/// edge.
const GROW: f64 = 1.25;
const BISECTIONS: usize = 3;
const MIN_RATE: f64 = 100.0;
const MAX_RATE: f64 = 1_000_000.0;

/// How long a submitted job may take before the phase gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

const JOBS: &str = "{\"op\":\"jobs\"}\n";

/// SplitMix64: the schedule's deterministic source of choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A protocol request line: a compact JSON object plus the newline.
pub fn request(members: Vec<(&str, Json)>) -> String {
    let mut line = Json::Obj(
        members
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
    .compact();
    line.push('\n');
    line
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Point,
    Range,
    Submit,
    Poll,
}

/// Pre-rendered query lines over every cell of a store.
pub struct Traffic {
    point: Vec<String>,
    range: Vec<String>,
}

impl Traffic {
    /// One point query per cell, and one range query per cell that fixes
    /// every axis but the first (a short column of the cell's matrix, so
    /// responses stay small whatever the corpus size).
    pub fn over(store: &ResultStore) -> Result<Traffic, String> {
        if store.is_empty() {
            return Err("cannot draw queries from an empty store".into());
        }
        let mut point = Vec::with_capacity(store.len());
        let mut range = Vec::with_capacity(store.len());
        for (_, cell) in store.iter() {
            let pairs: Vec<(&str, &str)> = cell
                .params_key
                .split(',')
                .filter_map(|pair| pair.split_once('='))
                .collect();
            let fixed = pairs.get(1..).unwrap_or_default();
            point.push(request(vec![
                ("op", Json::str("query")),
                ("scenario", Json::str(&cell.scenario)),
                (
                    "params",
                    Json::Obj(
                        pairs
                            .iter()
                            .map(|&(axis, value)| (axis.to_string(), Json::str(value)))
                            .collect(),
                    ),
                ),
            ]));
            range.push(request(vec![
                ("op", Json::str("query_range")),
                ("scenario", Json::str(&cell.scenario)),
                (
                    "where",
                    Json::Obj(
                        fixed
                            .iter()
                            .map(|&(axis, value)| {
                                (axis.to_string(), Json::Arr(vec![Json::str(value)]))
                            })
                            .collect(),
                    ),
                ),
            ]));
        }
        Ok(Traffic { point, range })
    }

    /// 90% point queries and 10% range queries, cells drawn uniformly.
    fn pick(&self, rng: &mut SplitMix) -> (&str, Kind) {
        let r = rng.next_u64();
        let cell = (r >> 8) as usize % self.point.len();
        if r.is_multiple_of(10) {
            (&self.range[cell], Kind::Range)
        } else {
            (&self.point[cell], Kind::Point)
        }
    }
}

/// One persistent connection speaking the daemon's line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and reads its response line.
    pub fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            ));
        }
        Ok(&self.line)
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Query latencies, µs: the round trip plus any wait past the due
    /// time for the connection to free up. A failed query counts as
    /// infinite: it misses every latency limit.
    pub latency_us: Vec<f64>,
    /// How late each request left against its schedule, µs.
    pub late_us: Vec<f64>,
    /// How late the final tenth of a connection's requests left (median,
    /// worst connection), µs: a generator still behind at the end of its
    /// schedule had a growing backlog.
    pub end_late_us: f64,
    /// Requests sent: queries and job traffic alike.
    pub sent: u64,
    /// Requests that errored, or were answered with anything but a hit.
    pub failed: u64,
    /// The first few failures, for the run's diagnostics.
    pub errors: Vec<String>,
    /// Seconds from each submit until `jobs` reported its job done.
    pub submit_s: Vec<f64>,
}

impl Phase {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.end_late_us = self.end_late_us.max(other.end_late_us);
        self.sent += other.sent;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.submit_s.extend(other.submit_s);
    }

    /// p99 of the query latencies, µs (infinite when nothing answered).
    pub fn p99_us(&self) -> f64 {
        if self.latency_us.is_empty() {
            return f64::INFINITY;
        }
        Metric::percentile("p99", "us", &self.latency_us, Percentile::P99).value
    }
}

/// Offers `rate` req/s for `duration`, split evenly over the connections
/// (one thread each, schedules interleaved). Connection 0 sends the
/// `submits` spread evenly over its schedule, one job at a time, polling
/// `jobs` about once a millisecond in place of a query while one runs.
pub fn open_loop(
    conns: &mut [Conn],
    traffic: &Traffic,
    rate: f64,
    duration: Duration,
    seed: u64,
    submits: &[String],
) -> Phase {
    let n = conns.len();
    let period = Duration::from_secs_f64(n as f64 / rate);
    let per_conn = ((duration.as_secs_f64() * rate / n as f64).round() as u64).max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                let first = start + period.mul_f64(k as f64 / n as f64);
                let mut rng = SplitMix(seed ^ (k as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
                let submits = if k == 0 { submits } else { &[] };
                scope
                    .spawn(move || drive(conn, traffic, &mut rng, first, period, per_conn, submits))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        phase.absorb(part);
    }
    phase
}

/// One connection's schedule: `count` requests, `period` apart.
fn drive(
    conn: &mut Conn,
    traffic: &Traffic,
    rng: &mut SplitMix,
    first: Instant,
    period: Duration,
    count: u64,
    submits: &[String],
) -> Phase {
    let mut phase = Phase::default();
    let poll_every = ((1e-3 / period.as_secs_f64()).ceil() as u64).max(1);
    let submit_due = |j: usize| j as u64 * count / submits.len().max(1) as u64;
    let mut next_submit = 0;
    let mut job: Option<(u64, Instant)> = None;
    // When the connection last became free: a request due before then
    // waited on the daemon, and that wait is charged to it.
    let mut free_at = first;
    for i in 0..count {
        let due = first + period.mul_f64(i as f64);
        wait_until(due);
        let sent = Instant::now();
        phase
            .late_us
            .push(micros(sent.saturating_duration_since(due)));
        let waited = free_at.saturating_duration_since(due);
        let (line, kind) = if job.is_some() {
            if i % poll_every == 0 {
                (JOBS, Kind::Poll)
            } else {
                traffic.pick(rng)
            }
        } else if next_submit < submits.len() && i >= submit_due(next_submit) {
            next_submit += 1;
            (submits[next_submit - 1].as_str(), Kind::Submit)
        } else {
            traffic.pick(rng)
        };
        phase.sent += 1;
        let response = match conn.call(line) {
            Ok(response) => response,
            Err(e) => {
                free_at = Instant::now();
                if matches!(kind, Kind::Point | Kind::Range) {
                    phase.latency_us.push(f64::INFINITY);
                }
                phase.fail(format!("{}: {e}", line.trim_end()));
                continue;
            }
        };
        let answered = Instant::now();
        free_at = answered;
        match kind {
            Kind::Point | Kind::Range => {
                if hit(kind, response) {
                    phase.latency_us.push(micros(answered - sent + waited));
                } else {
                    let what = format!("{} -> {}", line.trim_end(), response.trim_end());
                    phase.latency_us.push(f64::INFINITY);
                    phase.fail(what);
                }
            }
            Kind::Submit => match job_id(response) {
                Some(id) => job = Some((id, sent)),
                None => {
                    let what = format!("submit refused: {}", response.trim_end());
                    phase.fail(what);
                }
            },
            Kind::Poll => {
                let (id, since) = job.expect("jobs are polled only while one is pending");
                match job_done(response, id) {
                    Ok(false) => {}
                    Ok(true) => {
                        phase.submit_s.push((answered - since).as_secs_f64());
                        job = None;
                    }
                    Err(e) => {
                        phase.fail(e);
                        job = None;
                    }
                }
            }
        }
    }
    let tail = phase.late_us.len() / 10;
    phase.end_late_us = Metric::median(
        "late",
        "us",
        &phase.late_us[phase.late_us.len() - tail.max(1)..],
    )
    .value;
    finish_jobs(conn, &mut phase, job, &submits[next_submit..]);
    phase
}

/// Past its schedule, a connection sees the running job and any submit
/// still owed through, closed loop.
fn finish_jobs(
    conn: &mut Conn,
    phase: &mut Phase,
    mut job: Option<(u64, Instant)>,
    owed: &[String],
) {
    let mut owed = owed.iter();
    loop {
        let Some((id, since)) = job else {
            let Some(line) = owed.next() else {
                return;
            };
            phase.sent += 1;
            let since = Instant::now();
            match conn.call(line) {
                Ok(response) => match job_id(response) {
                    Some(id) => job = Some((id, since)),
                    None => {
                        let what = format!("submit refused: {}", response.trim_end());
                        phase.fail(what);
                    }
                },
                Err(e) => phase.fail(format!("submit: {e}")),
            }
            continue;
        };
        if since.elapsed() > JOB_TIMEOUT {
            phase.fail(format!("job {id} did not finish within {JOB_TIMEOUT:?}"));
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
        phase.sent += 1;
        match conn
            .call(JOBS)
            .map_err(|e| e.to_string())
            .and_then(|response| job_done(response, id))
        {
            Ok(false) => {}
            Ok(true) => {
                phase.submit_s.push(since.elapsed().as_secs_f64());
                job = None;
            }
            Err(e) => {
                phase.fail(e);
                job = None;
            }
        }
    }
}

/// A query is answered when it is `ok` and found cells: every query
/// targets a cell the store holds, so a miss is a wrong answer.
fn hit(kind: Kind, response: &str) -> bool {
    response.starts_with("{\"ok\":true")
        && match kind {
            Kind::Point => !response.contains("\"miss\":"),
            _ => !response.contains("\"count\":0,"),
        }
}

fn job_id(response: &str) -> Option<u64> {
    let doc = Json::parse(response.trim()).ok()?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return None;
    }
    doc.get("job")?.as_f64().map(|id| id as u64)
}

/// Reads job `id` from a `jobs` response: `Ok(true)` once done, an error
/// once it failed, was cancelled or dropped, or vanished.
fn job_done(response: &str, id: u64) -> Result<bool, String> {
    let doc = Json::parse(response.trim())?;
    let record = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .and_then(|jobs| {
            jobs.iter()
                .find(|job| job.get("job").and_then(Json::as_f64) == Some(id as f64))
        })
        .ok_or_else(|| format!("job {id} missing from `jobs`: {}", response.trim_end()))?;
    match record.get("status").and_then(Json::as_str) {
        Some("done") => Ok(true),
        Some("queued" | "running") => Ok(false),
        other => Err(format!(
            "job {id} ended {}: {}",
            other.unwrap_or("without a status"),
            record.get("error").and_then(Json::as_str).unwrap_or("")
        )),
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The ramp's answer, and everything it sent.
#[derive(Debug, Default)]
pub struct Ramp {
    /// The highest offered rate that held the limit, req/s (0 when none
    /// did).
    pub max: f64,
    /// Rates tried.
    pub steps: usize,
    pub sent: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Finds the highest offered rate whose p99 stays within [`LIMIT_US`]
/// with no failed request and no growing backlog: brackets the edge
/// from `start` in ×[`GROW`] steps of `step` each, then bisects the
/// bracket.
pub fn ramp(conns: &mut [Conn], traffic: &Traffic, start: f64, step: Duration, seed: u64) -> Ramp {
    let mut ramp = Ramp::default();
    let (mut pass, mut fail) = (None, None);
    let mut rate = start;
    while (MIN_RATE..=MAX_RATE).contains(&rate) {
        if trial(conns, traffic, rate, step, seed, &mut ramp) {
            pass = Some(rate);
            if fail.is_some() {
                break;
            }
            rate *= GROW;
        } else {
            fail = Some(rate);
            if pass.is_some() {
                break;
            }
            rate /= GROW;
        }
    }
    if let (Some(mut lo), Some(mut hi)) = (pass, fail) {
        for _ in 0..BISECTIONS {
            let mid = (lo * hi).sqrt();
            if trial(conns, traffic, mid, step, seed, &mut ramp) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        pass = Some(lo);
    }
    ramp.max = pass.unwrap_or(0.0);
    ramp
}

/// Offers `rate` for one step; true when it held the limit.
fn trial(
    conns: &mut [Conn],
    traffic: &Traffic,
    rate: f64,
    step: Duration,
    seed: u64,
    ramp: &mut Ramp,
) -> bool {
    let phase = open_loop(conns, traffic, rate, step, seed ^ ramp.steps as u64, &[]);
    ramp.steps += 1;
    ramp.sent += phase.sent;
    ramp.failed += phase.failed;
    ramp.errors.extend(phase.errors.iter().cloned());
    ramp.errors.truncate(5);
    // Let the daemon drain before the next step.
    std::thread::sleep(Duration::from_millis(20));
    phase.failed == 0 && phase.p99_us() <= LIMIT_US && phase.end_late_us <= LIMIT_US
}
