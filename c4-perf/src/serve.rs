//! `serve-warm` and `serve-mixed`: closed-loop clients against an
//! in-process cluster of two `c4d` backends (default configuration, one
//! job worker each) behind a `c4-gateway`.
//!
//! * `serve-warm` — one client resubmits the suite's sources, each once
//!   straight to the backend that owns it and once through the gateway.
//!   Every verdict is a cache hit warmed during set-up, so parsing,
//!   canonicalization, the cache key, the LRU lookup, the protocol and
//!   both event loops do all the work; the SMT layer does none.
//! * `serve-mixed` — two clients through the gateway: one resubmits the
//!   smallest programs' sources, the other submits seeded cold variants
//!   of a mid-size program (new cache keys, the same verdict shape;
//!   enough of them to overflow the backends' LRUs). Warm hits queue
//!   behind cold jobs on the single job worker, so head-of-line blocking
//!   shows in the warm client's pass time.

use std::time::{Duration, Instant};

use c4::{AnalysisFeatures, AnalysisResult, CacheKey, CacheTier, SsgLabel, VerdictCache};
use c4_gateway::{GatewayConfig, GatewayHandle};
use c4_service::client::{Client, Endpoint};
use c4_service::proto::{DaemonStats, JobState, ReqTiming, Request, Response};
use c4_service::server::{ServerConfig, ServerHandle};
use rand::{rngs::StdRng, SeedableRng};

use crate::layers::{front_end, Pipeline, Tally, TRACE_CAPACITY};
use crate::measure::{features, overhead, passes, repeated_setup, Opts, Outcome, Timings};
use crate::speed::{Span, Stopwatch};
use crate::stats::{median, quantile, ratio, shuffle, us};
use crate::suite::SMOKE_PROGRAMS;
use crate::variant::Variants;

/// Fixed backend ports: the gateway's consistent-hash ring is built from
/// the backend addresses, so fixed ports give every run the same split
/// of the suite's keys between the two backends.
const BACKEND_PORTS: [u16; 2] = [47211, 47212];

/// serve-warm starts a pass (56 requests) every 40 ms, about a fifth of
/// what one saturating client reaches on two cores, so passes finish in
/// their slots. A fixed rate fixes the number of requests, and with it
/// the heap the servers' job tables retain (they keep every finished
/// job), which at saturation would follow throughput.
const WARM_PASS_PERIOD: Duration = Duration::from_millis(40);

/// serve-mixed's warm client starts a pass (six requests) every 40 ms; a
/// pass takes about 17 ms, most of it queued behind cold jobs. The cold
/// client submits its next variant as soon as the last one is answered
/// and the speed sampled (about a millisecond), so a cold job is nearly
/// always running on one of the two backends: a warm request queues
/// behind it with a fixed chance, and waits in step with the machine's
/// speed. Pacing the cold client too (a variant every 20 ms) made that
/// chance grow with the machine's speed as well, so the warm pass time
/// grew with its square: over ten runs it spread 16–31 % where the cold
/// jobs' times spread 11–18 %.
const MIXED_WARM_PERIOD: Duration = Duration::from_millis(40);

/// The cold-variant base: a mid-size program (8 ms unfiltered), short
/// enough that a run's 1 500 or more variants overflow both 256-entry
/// LRUs several times. With `cassieq-core` (30 ms), a slow run stored
/// about 240 variants per backend and evicted nothing.
const MIXED_BASE: &str = "Color Line";
const SMOKE_MIXED_BASE: &str = "Tetris";

/// Two backends and a gateway, shut down and joined on drop.
struct Cluster {
    backends: Vec<(String, Option<ServerHandle>)>,
    gateway: (String, Option<GatewayHandle>),
    vnodes: usize,
}

impl Cluster {
    fn start() -> std::io::Result<Cluster> {
        let mut backends = Vec::new();
        for port in BACKEND_PORTS {
            let handle = c4_service::server::serve(ServerConfig {
                tcp: Some(format!("127.0.0.1:{port}")),
                ..ServerConfig::default()
            })
            .or_else(|e| {
                eprintln!("c4-perf: port {port} unavailable ({e}); using an ephemeral port");
                c4_service::server::serve(ServerConfig {
                    tcp: Some("127.0.0.1:0".into()),
                    ..ServerConfig::default()
                })
            })?;
            let addr = handle.tcp_addr.clone().expect("tcp listener configured");
            backends.push((addr, Some(handle)));
        }
        let cfg = GatewayConfig {
            tcp: Some("127.0.0.1:0".into()),
            backends: backends.iter().map(|(a, _)| a.clone()).collect(),
            ..GatewayConfig::default()
        };
        let vnodes = cfg.vnodes;
        let gw = c4_gateway::serve(cfg)?;
        let gw_addr = gw.tcp_addr.clone().expect("tcp listener configured");
        Ok(Cluster {
            backends,
            gateway: (gw_addr, Some(gw)),
            vnodes,
        })
    }

    fn gateway(&self) -> Client {
        Client::new(Endpoint::Tcp(self.gateway.0.clone()))
    }

    /// The backend the gateway routes `key` to.
    fn owner(&self, key: &CacheKey) -> Client {
        let addrs: Vec<String> = self.backends.iter().map(|(a, _)| a.clone()).collect();
        let ring = c4_gateway::ring::Ring::new(&addrs, self.vnodes);
        let i = ring.primary(key.ring_point()).expect("two backends");
        Client::new(Endpoint::Tcp(addrs[i].clone()))
    }

    /// Summed statistics of both backends.
    fn stats(&self) -> DaemonStats {
        let mut sum = DaemonStats::default();
        for (addr, _) in &self.backends {
            let s = Client::new(Endpoint::Tcp(addr.clone()))
                .stats()
                .expect("backend answers stats");
            sum.cache_mem_hits += s.cache_mem_hits;
            sum.cache_misses += s.cache_misses;
            sum.cache_stores += s.cache_stores;
            sum.cache_evictions += s.cache_evictions;
            sum.rejected += s.rejected;
        }
        sum
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(gw) = self.gateway.1.take() {
            let _ = self.gateway().shutdown();
            gw.wait();
        }
        for (addr, handle) in &mut self.backends {
            if let Some(h) = handle.take() {
                let _ = Client::new(Endpoint::Tcp(addr.clone())).shutdown();
                h.wait();
            }
        }
    }
}

/// A served verdict.
struct Served {
    report: Vec<u8>,
    tier: CacheTier,
    queue_ms: u64,
    run_ms: u64,
    timing: Option<ReqTiming>,
}

fn submit(client: &Client, source: &str, features: &AnalysisFeatures) -> Result<Served, String> {
    match client.submit_wait(source, features) {
        Ok((
            _,
            JobState::Done {
                report,
                tier,
                queue_ms,
                run_ms,
                timing,
            },
        )) => Ok(Served {
            report,
            tier,
            queue_ms,
            run_ms,
            timing,
        }),
        Ok((_, other)) => Err(format!("job ended {other:?}")),
        Err(e) => Err(format!("submit failed: {e}")),
    }
}

/// A warm source: its text, and the report `run_analysis` computes for
/// it in-process, which every served verdict of it must equal.
struct Warm {
    name: &'static str,
    source: &'static str,
    expected: Vec<u8>,
}

/// The warm sources: every suite program, or only the smallest ones.
/// Their expected reports are computed here, once, before the timed
/// set-ups.
fn warm_sources(small_only: bool) -> Vec<Warm> {
    let features = features();
    c4_suite::benchmarks()
        .into_iter()
        .filter(|b| !small_only || SMOKE_PROGRAMS.contains(&b.name))
        .map(|b| Warm {
            name: b.name,
            source: b.source,
            expected: c4_service::run_analysis(b.source, &features)
                .expect("suite sources analyze")
                .encode_report(),
        })
        .collect()
}

struct Setup {
    cluster: Cluster,
    /// The backend that owns each warm source's key, in source order.
    owners: Vec<Client>,
}

/// Starts the cluster and warms each verdict through the gateway,
/// checking the bytes; the speed is sampled after each step.
fn setup(warm: &[Warm], out: &mut Outcome, watch: &mut Stopwatch) -> Setup {
    let features = features();
    let cluster = Cluster::start().expect("cluster starts");
    let gw = cluster.gateway();
    let mut owners = Vec::new();
    for w in warm {
        watch.lap();
        out.check(check_bytes(w.name, submit(&gw, w.source, &features), &w.expected).map(|_| ()));
        let key = c4_service::cache_key(w.source, &features).expect("suite sources parse");
        owners.push(cluster.owner(&key));
    }
    Setup { cluster, owners }
}

fn check_bytes(
    name: &str,
    served: Result<Served, String>,
    expected: &[u8],
) -> Result<Served, String> {
    let s = served.map_err(|e| format!("{name}: {e}"))?;
    if s.report == expected {
        Ok(s)
    } else {
        Err(format!("{name}: served report differs from run_analysis"))
    }
}

/// Latencies and daemon-reported times of served requests.
#[derive(Default)]
struct ServedLog {
    direct_us: Vec<f64>,
    gw_us: Vec<f64>,
    queue_ms: Vec<f64>,
    /// Run time of the jobs the daemon computed (cache misses).
    miss_run_ms: Vec<f64>,
    residence_ms: Vec<f64>,
    retries: f64,
    hedges: f64,
}

impl ServedLog {
    fn record(&mut self, s: &Served, via_gateway: bool, d: Duration) {
        self.queue_ms.push(s.queue_ms as f64);
        if s.tier == CacheTier::Miss {
            self.miss_run_ms.push(s.run_ms as f64);
        }
        if via_gateway {
            self.gw_us.push(us(d));
            if let Some(t) = &s.timing {
                self.residence_ms.push(t.gateway_ms as f64);
                self.retries += f64::from(t.retries);
                self.hedges += f64::from(u8::from(t.hedged));
            }
        } else {
            self.direct_us.push(us(d));
        }
    }

    fn absorb(&mut self, o: ServedLog) {
        self.direct_us.extend(o.direct_us);
        self.gw_us.extend(o.gw_us);
        self.queue_ms.extend(o.queue_ms);
        self.miss_run_ms.extend(o.miss_run_ms);
        self.residence_ms.extend(o.residence_ms);
        self.retries += o.retries;
        self.hedges += o.hedges;
    }

    fn layers(&self, out: &mut Outcome) {
        let n = self.queue_ms.len();
        out.set("service.queue_ms_p50", quantile(&self.queue_ms, 0.5), n);
        out.set("service.queue_ms_p95", quantile(&self.queue_ms, 0.95), n);
        out.set(
            "service.run_ms_p50",
            quantile(&self.miss_run_ms, 0.5),
            self.miss_run_ms.len(),
        );
        out.set(
            "gateway.residence_ms_p50",
            quantile(&self.residence_ms, 0.5),
            self.residence_ms.len(),
        );
        out.set("gateway.retries", self.retries, self.gw_us.len());
        out.set("gateway.hedges", self.hedges, self.gw_us.len());
    }
}

/// One warm request, timed and checked.
fn warm_request(
    w: &Warm,
    client: &Client,
    via_gateway: bool,
    f: &AnalysisFeatures,
    log: &mut ServedLog,
    out: &mut Outcome,
) -> Span {
    let start = Instant::now();
    let served = submit(client, w.source, f);
    let span = Span::since(start);
    out.check(
        check_bytes(w.name, served, &w.expected).map(|s| log.record(&s, via_gateway, span.d)),
    );
    span
}

pub fn run_warm(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let warm = warm_sources(opts.smoke);
    let (s, setup_out) = repeated_setup(opts, &mut out, |watch| {
        let mut setup_out = Outcome::default();
        (setup(&warm, &mut setup_out, watch), setup_out)
    });
    out.merge(setup_out);
    let features = features();
    let gw = s.cluster.gateway();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut order: Vec<usize> = (0..warm.len()).collect();
    let mut dropped = 0;
    let mut pass = |t: &mut Timings, log: &mut ServedLog, out: &mut Outcome, traced: bool| {
        shuffle(&mut order, &mut rng);
        for &i in &order {
            let w = &warm[i];
            for via_gateway in [false, true] {
                if traced {
                    c4_obs::enable(TRACE_CAPACITY);
                }
                // The gateway path is the primary class: it is what
                // clients of the cluster see, and it includes a backend.
                let client = if via_gateway { &gw } else { &s.owners[i] };
                let span = warm_request(w, client, via_gateway, &features, log, out);
                t.item(2 * i + usize::from(via_gateway), span);
                if via_gateway {
                    t.verdict(span);
                }
                if traced {
                    dropped += c4_obs::drain().dropped_events();
                }
            }
        }
    };

    let before = s.cluster.stats();
    let mut untraced = Timings::default();
    let mut log = ServedLog::default();
    passes(opts.window(), Some(WARM_PASS_PERIOD), &mut untraced, |t| {
        pass(t, &mut log, &mut out, false)
    });
    if !opts.trace {
        untraced.report(&mut out);
        let secs = untraced.elapsed.as_secs_f64();
        let (nd, ng) = (log.direct_us.len(), log.gw_us.len());
        out.detail(
            "warm_direct_p50_us",
            quantile(&log.direct_us, 0.5),
            "us",
            nd,
        );
        out.detail(
            "warm_direct_p99_us",
            quantile(&log.direct_us, 0.99),
            "us",
            nd,
        );
        out.detail("warm_gw_p50_us", quantile(&log.gw_us, 0.5), "us", ng);
        out.detail("warm_gw_p99_us", quantile(&log.gw_us, 0.99), "us", ng);
        out.detail("warm_rps", (nd + ng) as f64 / secs, "1/s", nd + ng);
        return out;
    }

    let mut traced = Timings::default();
    let mut traced_log = ServedLog::default();
    passes(opts.window(), Some(WARM_PASS_PERIOD), &mut traced, |t| {
        pass(t, &mut traced_log, &mut out, true)
    });
    let after = s.cluster.stats();
    if dropped > 0 {
        out.fail(format!("trace rings dropped {dropped} events"));
    }
    log.layers(&mut out);
    let front = warm_path_layers(&warm, &features, &mut out);
    let direct = median(&log.direct_us);
    out.set("service.residual_us", direct - front, log.direct_us.len());
    out.set(
        "gateway.hop_us",
        median(&log.gw_us) - direct,
        log.gw_us.len(),
    );
    cache_layers(&before, &after, &mut out);
    out.set("obs.dropped_events", dropped as f64, traced.verdicts.len());
    out.set(
        "obs.trace_overhead_ratio",
        overhead(&untraced, &traced),
        traced.passes.len(),
    );
    out
}

/// Times the warm path's layers from outside, each through its public
/// function on the same sources and reports: canonicalization, the cache
/// key, an LRU lookup, and the protocol round of one request and its
/// reply. Returns their summed means (µs per request).
fn warm_path_layers(warm: &[Warm], f: &AnalysisFeatures, out: &mut Outcome) -> f64 {
    const REPS: usize = 50;
    let cache = VerdictCache::in_memory(256);
    let keys: Vec<CacheKey> = warm
        .iter()
        .map(|w| {
            let key = c4_service::cache_key(w.source, f).expect("suite sources parse");
            cache.store(&key, &w.expected);
            key
        })
        .collect();
    let mut sums = [0.0f64; 4];
    for _ in 0..REPS {
        for (w, key) in warm.iter().zip(&keys) {
            let t = Instant::now();
            let canon =
                std::hint::black_box(c4_service::canonical_source(w.source).expect("parses"));
            sums[0] += us(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(CacheKey::derive(&canon, "program", f));
            sums[1] += us(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(cache.lookup(key));
            sums[2] += us(t.elapsed());
            let t = Instant::now();
            let req = Request::Submit {
                wait: true,
                features: f.clone(),
                source: w.source.to_string(),
                ctx: None,
            };
            std::hint::black_box(Request::decode(&req.encode()).expect("request round-trips"));
            let state = JobState::Done {
                tier: CacheTier::Memory,
                queue_ms: 0,
                run_ms: 0,
                report: w.expected.clone(),
                timing: Some(ReqTiming::default()),
            };
            let resp = Response::Status { job_id: 1, state };
            std::hint::black_box(Response::decode(&resp.encode()).expect("reply round-trips"));
            sums[3] += us(t.elapsed());
        }
    }
    let n = (REPS * warm.len()) as f64;
    let names = [
        "lang.canonical_us",
        "core.cache_key_us",
        "core.cache_lookup_us",
        "service.codec_us",
    ];
    for (name, sum) in names.into_iter().zip(sums) {
        out.set(name, sum / n, REPS * warm.len());
    }
    sums.iter().sum::<f64>() / n
}

fn cache_layers(before: &DaemonStats, after: &DaemonStats, out: &mut Outcome) {
    let hits = (after.cache_mem_hits - before.cache_mem_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let n = (hits + misses) as usize;
    out.set("service.cache_hit_ratio", ratio(hits, hits + misses), n);
    out.set(
        "core.cache_stores",
        (after.cache_stores - before.cache_stores) as f64,
        n,
    );
    out.set(
        "core.cache_evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
        n,
    );
    out.set(
        "service.busy_replies",
        (after.rejected - before.rejected) as f64,
        n,
    );
}

/// A report's verdict with the renaming-dependent text left out: each
/// violation's transactions, cycle labels, sessions and whether it has a
/// validated counter-example, plus the generalization outcome.
type Shape = (
    Vec<(
        std::collections::BTreeSet<usize>,
        Vec<SsgLabel>,
        usize,
        bool,
    )>,
    bool,
    usize,
);

fn shape(r: &AnalysisResult) -> Shape {
    let mut v: Vec<_> = r
        .violations
        .iter()
        .map(|v| {
            (
                v.txs.clone(),
                v.labels.clone(),
                v.sessions,
                v.counterexample.is_some(),
            )
        })
        .collect();
    v.sort();
    (v, r.generalized, r.max_k)
}

pub fn run_mixed(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let base_name = if opts.smoke {
        SMOKE_MIXED_BASE
    } else {
        MIXED_BASE
    };
    let features = features();
    // The warm client resubmits the smallest programs only: the head-of-
    // line blocking it measures does not depend on which warm verdicts
    // queue, and their set-up takes milliseconds, not seconds.
    let warm = warm_sources(true);
    let base = c4_suite::benchmark(base_name).expect("base program exists");
    let base_shape =
        shape(&c4_service::run_analysis(base.source, &features).expect("base analyzes"));
    let variants = Variants::new(base.source, opts.seed);
    let (s, setup_out) = repeated_setup(opts, &mut out, |watch| {
        let mut setup_out = Outcome::default();
        (setup(&warm, &mut setup_out, watch), setup_out)
    });
    out.merge(setup_out);
    let mut next_variant = 0u64;

    let mut phase = |traced: bool,
                     out: &mut Outcome|
     -> (Timings, ServedLog, ServedLog, Pipeline) {
        let mut warm_t = Timings::default();
        let mut cold_t = Timings::default();
        let mut log = ServedLog::default();
        let mut cold_log = ServedLog::default();
        let mut layers = Pipeline::default();
        let mut warm_out = Outcome::default();
        let mut cold_out = Outcome::default();
        let mut order: Vec<usize> = (0..warm.len()).collect();
        if traced {
            c4_obs::enable(TRACE_CAPACITY);
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let gw = s.cluster.gateway();
                let mut rng = StdRng::seed_from_u64(opts.seed);
                passes(opts.window(), Some(MIXED_WARM_PERIOD), &mut warm_t, |t| {
                    shuffle(&mut order, &mut rng);
                    for &i in &order {
                        let span =
                            warm_request(&warm[i], &gw, true, &features, &mut log, &mut warm_out);
                        t.item(i, span);
                    }
                });
            });
            scope.spawn(|| {
                let gw = s.cluster.gateway();
                // A "pass" of the cold client is one variant.
                passes(opts.window(), None, &mut cold_t, |t| {
                    let source = variants.source(next_variant);
                    next_variant += 1;
                    let start = Instant::now();
                    let served = submit(&gw, &source, &features);
                    let span = Span::since(start);
                    t.verdict(span);
                    if traced {
                        layers.absorb(&Tally::of(&c4_obs::drain()));
                        c4_obs::enable(TRACE_CAPACITY);
                    }
                    let checked = served.and_then(|s| {
                        cold_log.record(&s, true, span.d);
                        let got = AnalysisResult::decode_report(&s.report)
                            .map_err(|e| format!("{e:?}"))?;
                        if shape(&got) == base_shape {
                            Ok(())
                        } else {
                            Err("cold variant's verdict differs from its base program's".into())
                        }
                    });
                    cold_out
                        .check(checked.map_err(|e| format!("variant {}: {e}", next_variant - 1)));
                });
            });
        });
        if traced {
            c4_obs::drain();
        }
        out.merge(warm_out);
        out.merge(cold_out);
        // Cold variants are the primary class; the warm client's passes
        // carry the head-of-line blocking.
        warm_t.verdicts = cold_t.verdicts;
        (warm_t, log, cold_log, layers)
    };

    let before = s.cluster.stats();
    let (untraced, mut log, cold_log, _) = phase(false, &mut out);
    if !opts.trace {
        untraced.report(&mut out);
        let (nw, nc) = (log.gw_us.len(), untraced.verdicts.len());
        let cold_ms: Vec<f64> = untraced.verdict_us().iter().map(|u| u / 1e3).collect();
        out.detail("mixed_warm_p50_us", quantile(&log.gw_us, 0.5), "us", nw);
        out.detail("mixed_warm_p99_us", quantile(&log.gw_us, 0.99), "us", nw);
        out.detail("mixed_cold_p50_ms", quantile(&cold_ms, 0.5), "ms", nc);
        out.detail(
            "mixed_cold_per_s",
            nc as f64 / untraced.elapsed.as_secs_f64(),
            "1/s",
            nc,
        );
        return out;
    }
    let (traced, _, _, layers) = phase(true, &mut out);
    let after = s.cluster.stats();
    if layers.dropped > 0 {
        out.fail(format!("trace rings dropped {} events", layers.dropped));
    }
    let cold = layers.verdicts;
    out.set("obs.dropped_events", layers.dropped as f64, cold);
    out.set_layers(layers.finish(), cold);
    log.absorb(cold_log);
    log.layers(&mut out);
    cache_layers(&before, &after, &mut out);
    warm_path_layers(&warm, &features, &mut out);
    // The daemon's front end on the run's last variants. It analyzes no
    // filtered views.
    let sample: Vec<String> = (next_variant.saturating_sub(16)..next_variant)
        .map(|i| variants.source(i))
        .collect();
    let sample: Vec<&str> = sample.iter().map(String::as_str).collect();
    out.set_layers(front_end(&sample, &features, false), sample.len());
    out.set(
        "obs.trace_overhead_ratio",
        overhead(&untraced, &traced),
        traced.passes.len(),
    );
    out
}
