//! `wire-steady`: open-loop Poisson fixes over one loopback TCP
//! connection into `NetServer` → `BatchServer::start`, two tenants
//! sharing it 80/20. It isolates the latency path.
//!
//! The load generator is the benchmark's own: one thread paces and sends
//! on the connection's write half, another reads replies on its read
//! half. Each request is timed from when it was *due*, not from when the
//! sender got round to writing it, so a stalled sender shows up as
//! latency (no coordinated omission), and the sender's lateness is
//! reported.

use super::{check_quiescent, model_layers, probe_pass, resident_server, rss_mb, serve_layers, us};
use super::{Opts, Outcome, Verdict};
use crate::report::Metric;
use crate::setup::Fixture;
use crate::stats::{mean, pct_or_zero, poisson_schedule, Rng};
use crate::trace::Tracer;
use noble_geo::Point;
use noble_net::{Backend, Body, LocalizeRequest, NetClient, NetConfig, NetServer, WireShard};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered fixes per second: a fixed absolute rate, well under the
/// wire path's capacity on a 2-core machine.
const RATE: f64 = 2000.0;

/// Share of requests sent as the first tenant.
const TENANT_A_SHARE: f64 = 0.8;

/// Lead time between planning and the first due request.
const LEAD: Duration = Duration::from_millis(20);

/// How one request ended.
#[derive(Debug, Clone, Copy)]
enum Reply {
    Fix(Point, Instant),
    Refused,
    Error,
}

/// What the sender did for each request.
struct Sent {
    /// Send start and end per request sent.
    times: Vec<(Instant, Instant)>,
    /// Transport failure that stopped the sender, if any.
    error: Option<String>,
}

/// Runs the workload.
///
/// # Errors
///
/// Start-up failures; failed or wrong requests are counted instead.
pub fn run(fx: &Fixture, opts: &Opts, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let server = resident_server(fx, tracer)?;
    let edge = NetServer::bind_tcp(
        ([127, 0, 0, 1], 0).into(),
        Backend::Fix(server.client()),
        NetConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;

    let offsets = poisson_schedule(RATE, opts.warmup + opts.measure, opts.seed);
    let mut rng = Rng::new(opts.seed, 3);
    let plan: Vec<(usize, bool)> = offsets
        .iter()
        .map(|_| (rng.below(fx.probes.len()), rng.next_f64() < TENANT_A_SHARE))
        .collect();
    let n = offsets.len();

    let client = NetClient::connect(edge.endpoint()).map_err(|e| format!("connect: {e}"))?;
    let (mut sender, mut receiver) = client.split();
    let start = Instant::now() + LEAD;

    let (sent, replies) = std::thread::scope(|scope| {
        let send = scope.spawn(|| {
            let mut sent = Sent {
                times: Vec::with_capacity(n),
                error: None,
            };
            for (offset, &(probe, tenant_a)) in offsets.iter().zip(&plan) {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let p = &fx.probes[probe];
                let body = Body::Localize(LocalizeRequest {
                    tenant: if tenant_a { "tenant-a" } else { "tenant-b" }.to_string(),
                    shard: WireShard {
                        building: p.key.building as u32,
                        floor: p.key.floor.map(|f| f as u32),
                    },
                    fingerprint: p.features.clone(),
                });
                let t0 = Instant::now();
                if let Err(e) = sender.send(body) {
                    sent.error = Some(format!("send: {e}"));
                    break;
                }
                sent.times.push((t0, Instant::now()));
            }
            sent
        });
        let recv = scope.spawn(|| {
            let mut replies: Vec<Option<Reply>> = vec![None; n];
            let mut duplicates = 0u64;
            let mut error = None;
            for _ in 0..n {
                let frame = match receiver.recv() {
                    Ok(frame) => frame,
                    Err(e) => {
                        error = Some(format!("recv: {e}"));
                        break;
                    }
                };
                let at = Instant::now();
                let reply = match frame.body {
                    Body::Fix(fix) => Reply::Fix(Point::new(fix.x, fix.y), at),
                    Body::Rejected(_) => Reply::Refused,
                    _ => Reply::Error,
                };
                // Ids count up from 1 on a fresh connection.
                match usize::try_from(frame.id)
                    .ok()
                    .and_then(|id| id.checked_sub(1))
                {
                    Some(i) if i < n && replies[i].is_none() => replies[i] = Some(reply),
                    _ => duplicates += 1,
                }
            }
            (replies, duplicates, error)
        });
        let sent = send.join();
        let replies = recv.join();
        (sent, replies)
    });
    let sent = sent.map_err(|_| "sender thread panicked".to_string())?;
    let (replies, duplicates, recv_error) =
        replies.map_err(|_| "receiver thread panicked".to_string())?;
    let rss = rss_mb();

    let mut out = Outcome {
        begin: Some(start + opts.warmup),
        measured_s: opts.measure.as_secs_f64(),
        rss_mb: rss,
        ..Outcome::default()
    };
    for e in [sent.error, recv_error].into_iter().flatten() {
        out.violations.push(e);
    }
    if duplicates > 0 {
        out.violations.push(format!(
            "{duplicates} replies with an unknown or repeated id"
        ));
    }
    let missing = replies.iter().filter(|r| r.is_none()).count();
    if missing > 0 {
        out.violations
            .push(format!("{missing} of {n} requests got no reply"));
    }

    let mut late_us = Vec::new();
    let mut send_us = Vec::new();
    let mut wire_us = Vec::new();
    for (i, reply) in replies.iter().enumerate() {
        let due = start + offsets[i];
        let probe = &fx.probes[plan[i].0];
        let verdict = match reply {
            Some(Reply::Fix(p, _)) => Verdict::checked(probe.matches(*p)),
            _ => Verdict::Failed,
        };
        out.counts.tally(verdict);
        let measured = offsets[i] >= opts.warmup;
        if let (Some(Reply::Fix(_, at)), Some(&(t0, _))) = (reply, sent.times.get(i)) {
            wire_us.push(us(t0, *at));
        }
        if let Some(&(t0, t1)) = sent.times.get(i) {
            if measured {
                late_us.push(us(due, t0));
                send_us.push(us(t0, t1));
            }
        }
        if !measured {
            continue;
        }
        let at_s = (offsets[i] - opts.warmup).as_secs_f64();
        match reply {
            Some(Reply::Fix(_, at)) if verdict == Verdict::Correct => {
                out.samples.push((at_s, us(due, *at)))
            }
            _ => out.samples.push((at_s, f64::INFINITY)),
        }
        if let (Some(tracer), Some(&(t0, t1)), Some(Reply::Fix(_, at))) =
            (tracer, sent.times.get(i), reply)
        {
            let root = tracer.id();
            let request = i as u64 + 1;
            out.spans
                .push(tracer.span("fix", root, 0, request, due, *at));
            out.spans
                .push(tracer.span("net.send", tracer.id(), root, request, t0, t1));
        }
    }

    // Every reply is in, so the edge and the serving tier must be idle,
    // and every request the edge saw was either accepted or shed.
    check_quiescent(&server, &mut out);
    let edge_stats = edge.shutdown();
    let offered = sent.times.len() as u64;
    let shed = edge_stats.shed_overload + edge_stats.shed_quota;
    if offered != edge_stats.accepted + shed {
        out.violations.push(format!(
            "offered {offered} != accepted {} + shed {shed}",
            edge_stats.accepted
        ));
    }
    if edge_stats.completed != edge_stats.accepted || edge_stats.bad_frames != 0 {
        out.violations.push(format!(
            "edge accepted {}, completed {}, saw {} bad frames",
            edge_stats.accepted, edge_stats.completed, edge_stats.bad_frames
        ));
    }
    // Shard counters before the probe pass, which would blend in.
    let shards = server.stats();
    probe_pass(
        fx,
        &server.client(),
        |i, p| fx.probes[i].matches(p),
        &mut out,
    );
    server.shutdown();

    let served: u64 = shards.iter().map(|(_, s)| s.requests).sum();
    let serve_latency: u128 = shards.iter().map(|(_, s)| s.total_latency_us).sum();
    let serve_mean = if served == 0 {
        0.0
    } else {
        serve_latency as f64 / served as f64
    };
    out.layers = vec![
        Metric::new("loadgen.late_us_p99", "us", pct_or_zero(&late_us, 99.0)),
        Metric::new("net.send_us_p50", "us", pct_or_zero(&send_us, 50.0)),
        Metric::new("net.edge_us_mean", "us", mean(&wire_us) - serve_mean),
        Metric::new("net.accepted", "count", edge_stats.accepted as f64),
        Metric::new("net.shed", "count", shed as f64),
        Metric::new("net.completed", "count", edge_stats.completed as f64),
    ];
    out.layers.extend(serve_layers(&shards, &[]));
    if let Some(tracer) = tracer {
        let begin = start + opts.warmup;
        out.layers.extend(model_layers(
            &tracer.spans(),
            tracer.ns(begin),
            tracer.ns(begin + opts.measure),
        ));
    }
    Ok(out)
}
