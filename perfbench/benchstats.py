"""Schedule generation and statistics for the launch benchmark.

Everything seeded lives here: run.py turns a workload name and a seed
into a schedule file for sevf_perfbench, and turns the binary's raw
samples into the reported metrics. test_benchstats.py covers both.
"""

import bisect
import math
import random
import statistics

# The fixed request mix of warm-serve, in Zipf rank order (rank 1 is the
# most requested key). Ranks never depend on the seed, so every seed
# exercises the same working set.
WARM_MIX = [
    ("severifast-bzimage", "aws", 1),
    ("severifast-vmlinux", "aws", 1),
    ("severifast-bzimage", "ubuntu", 1),
    ("severifast-bzimage", "lupine", 1),
    ("severifast-vmlinux", "ubuntu", 1),
    ("severifast-vmlinux", "lupine", 1),
    ("severifast-bzimage", "aws", 2),
    ("severifast-vmlinux", "aws", 2),
    ("severifast-bzimage", "ubuntu", 2),
    ("severifast-bzimage", "lupine", 2),
    ("severifast-vmlinux", "ubuntu", 2),
    ("severifast-vmlinux", "lupine", 2),
]
ZIPF_S = 1.0

# (id, DRR weight, cache share MiB, share of the traffic)
TENANTS = [
    ("t0", 4, 256, 0.4),
    ("t1", 2, 256, 0.3),
    ("t2", 1, 256, 0.2),
    ("t3", 1, 256, 0.1),
]
WORKERS = 2

# The open-loop run, in order (rates in requests/s):
#  - a short first step at WARMUP_RPS, so the process's first-request
#    costs land outside the measured steps;
#  - the nominal step, 70 % of the run, at a rate that keeps the two
#    workers mostly idle: the latency metrics come from it;
#  - the saturation step: SATURATION_OUTSTANDING requests always
#    outstanding, sent as soon as one resolves. Its completion rate is
#    sustained_rps, the rate the service keeps up when never idle;
#  - a short rate ladder, one step of LADDER_REQUESTS per rate, whose
#    verdicts (latency limit, growing backlog) are printed but not
#    reported as a metric: near capacity a step of a few hundred
#    requests passes or fails by chance on a shared host.
# Every step sends a fixed number of requests, so the tail percentile it
# supports does not depend on the seed.
WARMUP_RPS = 100
WARMUP_REQUESTS = 100
NOMINAL_RPS = 200
SATURATION_OUTSTANDING = 2 * WORKERS
LADDER_RPS = [600, 800, 1000, 1200]
LADDER_REQUESTS = 600
LATENCY_LIMIT_MS = 50.0
# A step of rate SATURATION sends on completions, not on a clock.
SATURATION = 0
# The nominal step runs as chunks of about this many requests, with the
# host reference task between them (see REF_MS).
NOMINAL_CHUNK = 700

CLOSED = {
    "cold-severifast": {"key": ("severifast-bzimage", "aws", 1),
                        "host_threads": 1},
    "cold-direct": {"key": ("sev-direct-boot", "aws", 1),
                    "host_threads": 1},
}
# Template-cache budget of the cold loops: room for about two templates,
# so publishing a new one evicts an old one.
COLD_CACHE_MIB = 64
VERIFY_TOKENS = 3
WORKLOADS = list(CLOSED) + ["warm-serve"]

PERCENTILES = [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.90, "p90")]
MIN_BEYOND = 10
# Tails are taken per window of TAIL_WINDOW consecutive launches (which
# supports p90) and reported as the median over windows, so one host
# stall moves one window, not the whole run's tail. Open-loop latencies
# (about 2 ms) are of the order of the host's own stalls, which follow
# the hypervisor's steal time: a vCPU that halts between requests waits
# for the host to run it again. An open-loop step (each nominal chunk
# too) therefore drops the windows that lost more than its median steal.
TAIL_WINDOW = 100


# Host speed. The runner times a fixed reference task (refTask in
# perfbench.cc: page faults, a memory copy and hashing, no library code)
# next to the work it measures: after every closed-loop launch and
# before and after every open-loop step. A time measured while
# the task took r ms is reported as time * REF_MS / r, which is the time
# at the speed of the reference host, on which the task takes REF_MS
# (a 4-vCPU Xeon VM with SHA-NI and AES-NI, in a period without steal).
# The host's slow and fast stretches then cancel, while a change to the
# library moves only the work measured. CPU times scale the same way by
# the task's CPU time.
REF_MS = 15.0
REF_CPU_MS = 15.0
# A closed-loop launch is scaled by the median of the reference runs
# around it, REF_WINDOW of them.
REF_WINDOW = 9


def _rng(seed, part):
    return random.Random("%s/%d" % (part, seed))


def open_plan(seconds):
    """[(rate, requests)] of the open-loop run, in run order: the nominal
    step in chunks of about NOMINAL_CHUNK requests (rate SATURATION is
    the saturation step)."""
    nominal = max(1000, int(NOMINAL_RPS * seconds * 0.7))
    chunks = max(1, round(nominal / NOMINAL_CHUNK))
    return ([(WARMUP_RPS, WARMUP_REQUESTS)]
            + [(NOMINAL_RPS, nominal // chunks)] * chunks
            + [(SATURATION, max(500, int(seconds * 150)))]
            + [(rate, LADDER_REQUESTS) for rate in LADDER_RPS])


def zipf_weights(n, s=ZIPF_S):
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def _open_step(rng, rate, count):
    keys = list(range(len(WARM_MIX)))
    kw = zipf_weights(len(WARM_MIX))
    tenants = list(range(len(TENANTS)))
    tw = [t[3] for t in TENANTS]
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append((int(t * 1e9), rng.choices(tenants, tw)[0],
                    rng.choices(keys, kw)[0]))
    return out


def schedule(workload, seed, seconds, trace=False):
    """The schedule text for one run; same arguments, same text."""
    lines = ["workload %s" % workload]
    if workload in CLOSED:
        spec = CLOSED[workload]
        rng = _rng(seed, workload + "/tokens")
        lines += ["loop closed",
                  "key %s %s %d" % spec["key"],
                  "host_threads %d" % spec["host_threads"],
                  "cache_mib %d" % COLD_CACHE_MIB,
                  "verify %d" % VERIFY_TOKENS]
        # Unique fixed-width cmdline tokens: every launch misses the
        # cache, and all launches share one virtual boot time.
        count = int(seconds * 40) + VERIFY_TOKENS + 16
        seen = set()
        while len(seen) < count:
            tok = "%016x" % rng.getrandbits(64)
            if tok not in seen:
                seen.add(tok)
                lines.append("token " + tok)
        return "\n".join(lines) + "\n"
    if workload != "warm-serve":
        raise ValueError("unknown workload %r" % workload)
    # The runner stops after a step whose median latency is over the
    # limit: deep overload, no higher rate can pass.
    lines += ["loop open", "workers %d" % WORKERS,
              "stop_ms %g" % LATENCY_LIMIT_MS]
    lines += ["tenant %s %d %d" % t[:3] for t in TENANTS]
    lines += ["mix %s %s %d" % k for k in WARM_MIX]
    if trace:
        # Untraced then traced halves at the nominal rate.
        count = max(300, int(NOMINAL_RPS * seconds / 2))
        steps = [(NOMINAL_RPS, count), (NOMINAL_RPS, count)]
        lines.append("traced_step 1")
    else:
        steps = open_plan(seconds)
    for i, (rate, count) in enumerate(steps):
        rng = _rng(seed, "warm-serve/step%d/%s" % (i, "trace" if trace
                                                   else "run"))
        if rate == SATURATION:
            lines.append("saturate %d" % SATURATION_OUTSTANDING)
            reqs = [(0, t, k) for _, t, k in _open_step(rng, 1.0, count)]
        else:
            lines.append("step %g" % rate)
            reqs = _open_step(rng, rate, count)
        lines += ["req %d %d %d" % r for r in reqs]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile: the ceil(q*n)-th smallest value."""
    v = sorted(values)
    if not v:
        raise ValueError("no samples")
    k = max(1, math.ceil(q * len(v) - 1e-9))
    return v[k - 1]


def tail(values):
    """(label, value, samples beyond) for the highest of p99.9/p99/p95/p90
    that has at least MIN_BEYOND samples beyond it; ("max", max, 0) when
    none has."""
    n = len(values)
    for q, label in PERCENTILES:
        beyond = n - max(1, math.ceil(q * n - 1e-9))
        if beyond >= MIN_BEYOND:
            return label, percentile(values, q), beyond
    return "max", max(values), 0


def windows(n, window):
    """[(start, end)] ranges of `window` consecutive samples out of n;
    samples past the last whole window join it. Fewer than two windows'
    worth of samples make one window."""
    count = n // window
    if count < 2:
        return [(0, n)]
    bounds = [i * window for i in range(count)] + [n]
    return list(zip(bounds, bounds[1:]))


def windowed_tail(values, ranges):
    """(label, value, samples beyond per window, windows): tail() of each
    range of `values`, median over the ranges."""
    tails = [tail(values[a:b]) for a, b in ranges]
    return (tails[0][0], statistics.median(t[1] for t in tails),
            tails[0][2], len(ranges))


def _interp(xs, ys, x):
    i = min(max(bisect.bisect_left(xs, x), 1), len(xs) - 1)
    x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
    return y0 if x1 == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def calm_windows(ranges, steal_at, steal_ticks):
    """The ranges during which the host stole no more CPU time from this
    VM than in the median range: at least half of them, and all of them
    when the host took nothing. `steal_ticks[i]` is the host's steal
    counter sampled before send `steal_at[i]`."""
    stolen = [_interp(steal_at, steal_ticks, b)
              - _interp(steal_at, steal_ticks, a) for a, b in ranges]
    limit = statistics.median(stolen)
    return [r for r, x in zip(ranges, stolen) if x <= limit]


def scaled_series(values, ref_ms, window=REF_WINDOW, ref=REF_MS):
    """values[i] at reference speed: scaled by ref over the median of
    the `window` reference runs around run i (ref_ms[i] ran right after
    values[i] was measured)."""
    if len(ref_ms) != len(values) or not values:
        raise ValueError("one reference run per value expected")
    n, half = len(values), window // 2
    out = []
    for i, v in enumerate(values):
        a = max(0, min(i - half, n - window))
        out.append(v * ref / statistics.median(ref_ms[a:a + window]))
    return out


def step_scale(step, ref=REF_MS):
    """Reference speed over host speed around one open-loop step: the
    reference runs just before and just after it."""
    return ref / statistics.median(step["ref_before_ms"]
                                   + step["ref_after_ms"])


def calm_latency_windows(step):
    """The calm ones of a step's TAIL_WINDOW-request windows, as lists
    of latencies at reference speed."""
    lat = [x * step_scale(step) for x in step["latency_ms"]]
    calm = calm_windows(windows(len(lat), TAIL_WINDOW),
                        step["steal_at"], step["steal_ticks"])
    return [lat[a:b] for a, b in calm]


def latency_over(wins):
    """(p50, (label, tail, beyond, windows)) over latency windows: the
    median of all their samples and the median of their tails."""
    pooled = [x for w in wins for x in w]
    tails = [tail(w) for w in wins]
    return statistics.median(pooled), (
        tails[0][0], statistics.median(t[1] for t in tails), tails[0][2],
        len(wins))


def step_latency(step):
    """(p50, windowed tail) of one open-loop step at reference speed,
    over the calm ones of its TAIL_WINDOW-request windows."""
    return latency_over(calm_latency_windows(step))


def nominal_latency(steps):
    """step_latency() over the calm windows of every nominal chunk. Each
    chunk gives the same share of windows: launches get slower as one
    process serves more of them, so choosing windows across chunks would
    choose between early and late launches."""
    wins = []
    for step in steps:
        if step["rate"] == NOMINAL_RPS:
            wins += calm_latency_windows(step)
    if not wins:
        raise ValueError("nominal step %g rps did not run" % NOMINAL_RPS)
    return latency_over(wins)


def backlog_growing(latency_ms, limit_ms=LATENCY_LIMIT_MS):
    """True when latency climbs across a step, in send order: the median
    of the last third exceeds that of the first third by more than half
    the latency limit. A queue that keeps up stays level; one stall
    moves fewer than a third of the samples and leaves both medians."""
    third = len(latency_ms) // 3
    if third == 0:
        return False
    first = statistics.median(latency_ms[:third])
    last = statistics.median(latency_ms[-third:])
    return last - first > limit_ms / 2


def step_passes(step, limit_ms=LATENCY_LIMIT_MS):
    """Whether a step met the latency limit on the host as it was: the
    limit applies to the latencies measured, not to scaled ones."""
    lat = step["latency_ms"]
    if not lat:
        return False
    calm = calm_windows(windows(len(lat), TAIL_WINDOW),
                        step["steal_at"], step["steal_ticks"])
    return (latency_over([lat[a:b] for a, b in calm])[1][1] < limit_ms
            and not backlog_growing(lat, limit_ms))


def rate_verdicts(steps, limit_ms=LATENCY_LIMIT_MS):
    """{rate: passed} over the steps run; a rate passes if any of its
    attempts does."""
    verdicts = {}
    for step in steps:
        ok = step_passes(step, limit_ms)
        verdicts[step["rate"]] = verdicts.get(step["rate"], False) or ok
    return verdicts


def ladder_rps(steps, limit_ms=LATENCY_LIMIT_MS):
    """The highest rate of a passing ladder step, as sent (0 when none
    passes). A lower rate that fails does not cap it: above capacity the
    backlog fails every attempt, while a host stall fails the one it
    lands in."""
    return max([rate for rate, ok in rate_verdicts(steps, limit_ms).items()
                if ok], default=0)


def saturated_rps(step):
    """Completions per second of a saturation step, at reference speed."""
    if not step["latency_ms"] or step["elapsed_s"] <= 0:
        raise ValueError("the saturation step completed nothing")
    return len(step["latency_ms"]) / step["elapsed_s"] / step_scale(step)


def sim_boot_ms(boot_ns_by_key, mix):
    """Mean virtual boot time over one cycle of the fixed mix.

    `boot_ns_by_key` holds every observed (key, boot_ns); each key must
    have one boot time, and each key of the mix counts once, however
    many launches of it a run happened to make.
    """
    seen = {}
    for key, boot_ns in boot_ns_by_key:
        if seen.setdefault(key, boot_ns) != boot_ns:
            raise ValueError("key %r has two virtual boot times" % (key,))
    missing = [k for k in mix if k not in seen]
    if missing:
        raise ValueError("mix keys never launched: %r" % (missing,))
    return statistics.fmean(seen[k] for k in mix) / 1e6
