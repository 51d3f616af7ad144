//! The open-loop load driver for `serve-net`: one connection, a
//! sender thread that keeps a seeded Poisson schedule and a receiver
//! on the calling thread. Latency is timed from each request's due
//! time, so a stall also counts against the requests queued behind it;
//! how late the sender ran is reported as lag.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use algas_core::net::client::Reply;
use algas_core::net::NetClient;
use algas_vector::VectorStore;

use crate::spec::derive;
use crate::stats::Series;

/// How long after the last due time a missing reply counts as failed.
const GRACE: Duration = Duration::from_secs(1);
/// Receiver poll interval while waiting for the deadline.
const POLL: Duration = Duration::from_millis(5);

/// One pass at a fixed rate.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Offered rate, requests per second.
    pub rate_qps: f64,
    /// Length of the schedule.
    pub seconds: f64,
    /// Seeds the arrival times and query choice.
    pub seed: u64,
    /// Every `ping_every`-th request is a PING (0: none). A PING
    /// crosses the socket and the net loop but not the runtime, so its
    /// round trip measures the net layer under the same load.
    pub ping_every: usize,
}

/// An answer to check: query index, ids, distances.
pub type Answer = (usize, Vec<u32>, Vec<f32>);

/// What one pass saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests written to the socket.
    pub sent: u64,
    /// Requests answered (RESULT or PONG).
    pub ok: u64,
    /// Requests refused (RETRY_AFTER or ERROR).
    pub rejected: u64,
    /// Requests with no reply by the deadline, or lost to a transport
    /// error.
    pub failed: u64,
    /// Replies that matched no outstanding request of this pass.
    pub unexpected: u64,
    /// SEARCH latency from due time to reply, µs (answered only),
    /// stamped with the due offset.
    pub latency: Series,
    /// PING round trip from due time, µs.
    pub ping_us: Vec<f64>,
    /// Send time minus due time, µs, per sent request.
    pub lag_us: Vec<f64>,
    /// Requests in the schedule over its span, q/s.
    pub offered_qps: f64,
    /// Answered requests over the time to the last answer, q/s.
    pub achieved_qps: f64,
    /// SEARCH answers, for the correctness checks.
    pub answers: Vec<Answer>,
    /// Per request: due, sent and answered instants, and whether it
    /// was a PING — the raw material of the traced run's spans.
    pub timeline: Vec<Stamp>,
}

/// One request's instants.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When it was written (`None`: never sent).
    pub sent: Option<Instant>,
    /// When its reply arrived (`None`: no reply).
    pub answered: Option<Instant>,
    /// A PING rather than a SEARCH.
    pub ping: bool,
}

/// A seeded Poisson schedule: due offsets (ns) in `[0, seconds)`, and
/// the query each request asks.
pub fn schedule(rate_qps: f64, seconds: f64, seed: u64, n_queries: usize) -> Vec<(u64, usize)> {
    let mut state = seed;
    let mut next = || {
        state = derive(state, 1);
        // 53 random bits → (0, 1].
        ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    };
    let horizon = seconds * 1e9;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -next().ln() / rate_qps * 1e9;
        if t >= horizon {
            return out;
        }
        let q = ((next() * n_queries as f64) as usize).min(n_queries - 1);
        out.push((t as u64, q));
    }
}

/// The driver's one connection, split into a send and a receive half.
pub struct Driver {
    tx: NetClient,
    rx: NetClient,
    next_id: u64,
}

impl Driver {
    /// Connects to `addr`.
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let tx = NetClient::connect(addr)?;
        let rx = NetClient::from_stream(tx.try_clone_stream()?);
        rx.set_read_timeout(Some(POLL))?;
        Ok(Self { tx, rx, next_id: 1 })
    }

    /// Runs one pass and waits for its replies or its deadline.
    pub fn run(&mut self, pass: Pass, queries: &VectorStore) -> Outcome {
        let plan = schedule(pass.rate_qps, pass.seconds, pass.seed, queries.len());
        let n = plan.len();
        let first_id = self.next_id;
        self.next_id += n as u64;
        let is_ping = |i: usize| pass.ping_every > 0 && i % pass.ping_every == pass.ping_every - 1;
        let epoch = Instant::now() + Duration::from_millis(2);
        let due = |i: usize| epoch + Duration::from_nanos(plan[i].0);
        let deadline = due(n.saturating_sub(1)) + GRACE;

        let mut out = Outcome {
            offered_qps: n as f64 / plan.last().map_or(1.0, |&(t, _)| t as f64 / 1e9),
            latency: Series::new(pass.seconds),
            ..Outcome::default()
        };
        let mut done = vec![false; n];
        let mut answered_at = vec![None; n];
        let mut last_answer = epoch;
        let tx = &mut self.tx;
        let rx = &mut self.rx;
        let sent_at = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut sent_at = Vec::with_capacity(n);
                for (i, &(_, q)) in plan.iter().enumerate() {
                    let at = due(i);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let at_send = Instant::now();
                    let id = first_id + i as u64;
                    let r = if is_ping(i) {
                        tx.send_ping(id, &[])
                    } else {
                        tx.send_search(id, queries.get(q))
                    };
                    if r.is_err() {
                        break;
                    }
                    sent_at.push(at_send);
                }
                sent_at
            });
            let mut answered = 0;
            while answered < n && Instant::now() < deadline {
                let reply = match rx.recv() {
                    Ok(r) => r,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(_) => break,
                };
                let now = Instant::now();
                let i = reply.request_id().wrapping_sub(first_id) as usize;
                if i >= n || done[i] {
                    out.unexpected += 1;
                    continue;
                }
                done[i] = true;
                answered_at[i] = Some(now);
                answered += 1;
                let from_due = (now - due(i)).as_secs_f64() * 1e6;
                match reply {
                    Reply::Result { ids, distances, .. } if !is_ping(i) => {
                        out.ok += 1;
                        out.latency.push(plan[i].0 as f64 / 1e9, from_due);
                        out.answers.push((plan[i].1, ids, distances));
                        last_answer = now;
                    }
                    Reply::Pong { .. } if is_ping(i) => {
                        out.ok += 1;
                        out.ping_us.push(from_due);
                        last_answer = now;
                    }
                    Reply::RetryAfter { .. } | Reply::Error { .. } => out.rejected += 1,
                    _ => {
                        done[i] = false;
                        answered_at[i] = None;
                        answered -= 1;
                        out.unexpected += 1;
                    }
                }
            }
            sender.join().expect("sender thread")
        });
        out.sent = sent_at.len() as u64;
        out.lag_us =
            sent_at.iter().enumerate().map(|(i, &t)| (t - due(i)).as_secs_f64() * 1e6).collect();
        out.failed = done[..sent_at.len()].iter().filter(|&&d| !d).count() as u64;
        out.timeline = (0..n)
            .map(|i| Stamp {
                due: due(i),
                sent: sent_at.get(i).copied(),
                answered: answered_at[i],
                ping: is_ping(i),
            })
            .collect();
        out.achieved_qps = out.ok as f64 / (last_answer - epoch).as_secs_f64().max(1e-9);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_replays_per_seed_and_keeps_its_rate() {
        let a = schedule(1000.0, 2.0, 7, 50);
        assert_eq!(a, schedule(1000.0, 2.0, 7, 50));
        assert_ne!(a, schedule(1000.0, 2.0, 8, 50));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(t, q)| t < 2_000_000_000 && q < 50));
    }
}
