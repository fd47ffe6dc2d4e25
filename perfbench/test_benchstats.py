"""Tests for the benchmark's seeded schedules and its own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchstats as bs  # noqa: E402


def requests(text):
    """Per step: list of (t_ns, tenant, key) from a schedule text."""
    steps = []
    for line in text.splitlines():
        f = line.split()
        if f[0] in ("step", "saturate"):
            steps.append([])
        elif f[0] == "req":
            steps[-1].append(tuple(int(x) for x in f[1:]))
    return steps


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        for w in bs.WORKLOADS:
            for trace in (False, True):
                self.assertEqual(bs.schedule(w, 7, 20, trace),
                                 bs.schedule(w, 7, 20, trace), w)

    def test_different_seed_different_schedule(self):
        for w in bs.WORKLOADS:
            for trace in (False, True):
                self.assertNotEqual(bs.schedule(w, 7, 20, trace),
                                    bs.schedule(w, 8, 20, trace), w)

    def test_cold_tokens_unique_fixed_width(self):
        for w in bs.CLOSED:
            tokens = [l.split()[1] for l in bs.schedule(w, 3, 20).splitlines()
                      if l.startswith("token ")]
            self.assertEqual(len(tokens), len(set(tokens)))
            self.assertEqual({len(t) for t in tokens}, {16})
            # Enough for 40 launches a second plus the verification set.
            self.assertGreaterEqual(len(tokens), 20 * 40)

    def test_open_loop_counts_do_not_depend_on_seed(self):
        a = requests(bs.schedule("warm-serve", 1, 20))
        b = requests(bs.schedule("warm-serve", 2, 20))
        self.assertEqual([len(s) for s in a], [len(s) for s in b])
        self.assertEqual([len(s) for s in a],
                         [count for _, count in bs.open_plan(20)])
        for step in a:
            times = [r[0] for r in step]
            self.assertEqual(times, sorted(times))
            for _, tenant, key in step:
                self.assertLess(tenant, len(bs.TENANTS))
                self.assertLess(key, len(bs.WARM_MIX))

    def test_saturation_step_sends_on_completions(self):
        text = bs.schedule("warm-serve", 4, 20)
        self.assertIn("saturate %d" % bs.SATURATION_OUTSTANDING,
                      text.splitlines())
        rates = [rate for rate, _ in bs.open_plan(20)]
        step = requests(text)[rates.index(bs.SATURATION)]
        self.assertEqual({t for t, _, _ in step}, {0})

    def test_zipf_rank_one_is_most_requested(self):
        rates = [rate for rate, _ in bs.open_plan(20)]
        step = requests(bs.schedule("warm-serve", 5, 20))[
            rates.index(bs.NOMINAL_RPS)]
        counts = [0] * len(bs.WARM_MIX)
        for _, _, key in step:
            counts[key] += 1
        self.assertEqual(counts.index(max(counts)), 0)

    def test_unknown_workload(self):
        with self.assertRaises(ValueError):
            bs.schedule("nope", 1, 20)


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(bs.tail(list(range(1, 101))), ("p90", 90, 10))
        self.assertEqual(bs.tail(list(range(1, 200))), ("p90", 180, 19))
        self.assertEqual(bs.tail(list(range(1, 201))), ("p95", 190, 10))
        self.assertEqual(bs.tail(list(range(1, 1001))), ("p99", 990, 10))
        self.assertEqual(bs.tail(list(range(1, 10001))),
                         ("p99.9", 9990, 10))

    def test_too_few_samples_reports_max(self):
        self.assertEqual(bs.tail(list(range(1, 100))), ("max", 99, 0))

    def test_order_does_not_matter(self):
        v = list(range(1, 1001))
        random.Random(3).shuffle(v)
        self.assertEqual(bs.tail(v), ("p99", 990, 10))


class WindowTest(unittest.TestCase):
    def test_short_series_is_one_window(self):
        self.assertEqual(bs.windows(300, 200), [(0, 300)])
        v = list(range(1, 301))
        self.assertEqual(bs.windowed_tail(v, bs.windows(300, 200)),
                         bs.tail(v) + (1,))

    def test_remainder_joins_last_window(self):
        self.assertEqual(bs.windows(550, 200), [(0, 200), (200, 550)])
        v = [1.0] * 400 + [9.0] * 150
        self.assertEqual(bs.windowed_tail(v, bs.windows(550, 200))[1],
                         (1.0 + 9.0) / 2)

    def test_median_over_windows(self):
        # Ten windows of 200, each with a p95 of 2.0; one also holds a
        # stall of 30 slow samples.
        v = [1.0] * 2000
        for w in range(10):
            for i in range(w * 200 + 180, w * 200 + 200):
                v[i] = 2.0
        v[400:430] = [50.0] * 30
        label, value, beyond, count = bs.windowed_tail(
            v, bs.windows(2000, 200))
        self.assertEqual((label, value, beyond, count), ("p95", 2.0, 10, 10))
        self.assertEqual(bs.tail(v)[1], 50.0)

    def test_calm_windows_drop_the_stolen_half(self):
        ranges = bs.windows(1000, 200)
        # Steal sampled every 50 sends; windows 1 and 3 lose time.
        at = list(range(0, 1001, 50))
        per_send = [5 if 200 <= i < 400 or 600 <= i < 800 else 0
                    for i in range(1000)]
        ticks = [sum(per_send[:i]) for i in at]
        self.assertEqual(bs.calm_windows(ranges, at, ticks),
                         [(0, 200), (400, 600), (800, 1000)])

    def test_step_latency_ignores_stolen_windows(self):
        lat = [2.0] * 1000
        lat[200:400] = [40.0] * 200  # the host took the CPU here
        at = list(range(0, 1001, 50))
        ticks = [0 if i <= 200 else min(i, 400) - 200 for i in at]
        step = {"latency_ms": lat, "steal_at": at,
                "steal_ticks": ticks, "ref_before_ms": [bs.REF_MS],
                "ref_after_ms": [bs.REF_MS]}
        p50, (label, value, _, count) = bs.step_latency(step)
        self.assertEqual((p50, label, value, count), (2.0, "p90", 2.0, 8))

    def test_nominal_latency_pools_the_chunks(self):
        fast = step(bs.NOMINAL_RPS, [2.0] * 300)
        slow = step(bs.NOMINAL_RPS, [4.0] * 300, host_ms=2 * bs.REF_MS)
        other = step(bs.NOMINAL_RPS * 2, [9.0] * 300)
        p50, (label, value, _, count) = bs.nominal_latency(
            [fast, other, slow])
        self.assertEqual((p50, label, value, count), (2.0, "p90", 2.0, 6))
        with self.assertRaises(ValueError):
            bs.nominal_latency([other])


class ReferenceSpeedTest(unittest.TestCase):
    def test_reference_host_is_unchanged(self):
        v = [100.0, 120.0, 110.0]
        self.assertEqual(bs.scaled_series(v, [bs.REF_MS] * 3), v)

    def test_slow_stretch_cancels(self):
        # The host runs at half speed for the second half of the run:
        # launches and reference runs take twice as long there.
        n = 40
        slow = [1 if i >= n // 2 else 0 for i in range(n)]
        lat = [150.0 * (1 + s) for s in slow]
        ref = [bs.REF_MS * (1 + s) for s in slow]
        scaled = bs.scaled_series(lat, ref)
        self.assertEqual(scaled[:15], [150.0] * 15)
        self.assertEqual(scaled[-15:], [150.0] * 15)

    def test_one_slow_reference_run_does_not_move_a_launch(self):
        ref = [bs.REF_MS] * 20
        ref[7] = 10 * bs.REF_MS
        self.assertEqual(bs.scaled_series([100.0] * 20, ref), [100.0] * 20)

    def test_short_series_uses_every_reference_run(self):
        scaled = bs.scaled_series([10.0, 10.0], [bs.REF_MS, 3 * bs.REF_MS])
        self.assertEqual(scaled, [5.0, 5.0])

    def test_needs_one_reference_run_per_value(self):
        with self.assertRaises(ValueError):
            bs.scaled_series([1.0, 2.0], [bs.REF_MS])

    def test_step_scale_uses_both_sides(self):
        st = step(100, [1.0])
        st["ref_before_ms"] = [bs.REF_MS] * 3
        st["ref_after_ms"] = [3 * bs.REF_MS] * 4
        self.assertEqual(bs.step_scale(st), 1 / 3)

    def test_nominal_step_runs_in_chunks(self):
        plan = bs.open_plan(30)
        chunks = [count for rate, count in plan if rate == bs.NOMINAL_RPS]
        self.assertGreater(len(chunks), 1)
        self.assertEqual(len(set(chunks)), 1)
        self.assertLessEqual(abs(chunks[0] - bs.NOMINAL_CHUNK),
                             bs.NOMINAL_CHUNK / 2)
        self.assertLessEqual(int(bs.NOMINAL_RPS * 30 * 0.7) - sum(chunks),
                             len(chunks))


class SimBootTest(unittest.TestCase):
    MIX = ["a", "b", "c"]
    BOOT = {"a": 100_000_000, "b": 200_000_000, "c": 600_000_000}

    def records(self, n, seed):
        # A skewed stream of launches, as a Zipf mix produces.
        rng = random.Random(seed)
        keys = list(self.MIX) + rng.choices(self.MIX, [8, 2, 1], k=n)
        return [(k, self.BOOT[k]) for k in keys]

    def test_same_whatever_the_run_length(self):
        short = bs.sim_boot_ms(self.records(0, 1), self.MIX)
        long = bs.sim_boot_ms(self.records(5000, 2), self.MIX)
        self.assertEqual(short, 300.0)
        self.assertEqual(long, short)

    def test_key_with_two_boot_times_is_an_error(self):
        recs = self.records(10, 1) + [("a", 1)]
        with self.assertRaises(ValueError):
            bs.sim_boot_ms(recs, self.MIX)

    def test_missing_mix_key_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.sim_boot_ms([("a", 1), ("b", 2)], self.MIX)


def step(rate, latencies, host_ms=bs.REF_MS):
    # No host steal recorded: every window counts. The reference task
    # took host_ms around the step.
    return {"rate": rate, "latency_ms": latencies,
            "steal_at": [0, len(latencies)], "steal_ticks": [0, 0],
            "ref_before_ms": [host_ms], "ref_after_ms": [host_ms]}


class BacklogTest(unittest.TestCase):
    def flat(self, n, seed, base=2.0):
        rng = random.Random(seed)
        return [base + rng.expovariate(1.0) for _ in range(n)]

    def test_flat_series_is_not_a_backlog(self):
        self.assertFalse(bs.backlog_growing(self.flat(1000, 1)))

    def test_linear_growth_is_a_backlog(self):
        # An arrival rate above capacity: each request waits a bit
        # longer than the one before.
        self.assertTrue(bs.backlog_growing(
            [2.0 + 0.05 * i for i in range(1000)]))

    def test_one_stall_is_not_a_backlog(self):
        # A 100 ms host stall at the end of the step delays a burst of
        # requests, then the queue catches up.
        lat = self.flat(1000, 2)
        lat[-150:-50] = [100.0 - i for i in range(100)]
        self.assertFalse(bs.backlog_growing(lat))

    def test_slow_growth_under_the_limit_is_not_a_backlog(self):
        self.assertFalse(bs.backlog_growing(
            [2.0 + 0.01 * i for i in range(1000)]))

    def test_sustained_rate_is_the_highest_passing_rate(self):
        growing = [2.0 + 0.05 * i for i in range(1000)]
        steps = [step(100, self.flat(500, 1)),
                 step(200, growing),
                 step(400, self.flat(500, 2)),
                 step(800, growing)]
        self.assertEqual(bs.ladder_rps(steps), 400)

    def test_one_passing_attempt_sustains_a_rate(self):
        growing = [2.0 + 0.05 * i for i in range(1000)]
        steps = [step(100, self.flat(500, 1)),
                 step(200, growing),
                 step(200, self.flat(500, 2)),
                 step(400, growing),
                 step(400, growing)]
        self.assertEqual(bs.rate_verdicts(steps),
                         {100: True, 200: True, 400: False})
        self.assertEqual(bs.ladder_rps(steps), 200)

    def test_saturated_rate_is_at_reference_speed(self):
        # 1000 completions in 2 s, on a host at half speed: at
        # reference speed the service would have kept up 1000/s.
        sat = step(bs.SATURATION, [4.0] * 1000, host_ms=2 * bs.REF_MS)
        sat["elapsed_s"] = 2.0
        self.assertEqual(bs.saturated_rps(sat), 1000.0)
        sat["latency_ms"] = []
        with self.assertRaises(ValueError):
            bs.saturated_rps(sat)

    def test_limit_applies_to_latency_as_measured(self):
        # On a host at half speed, 30 ms launches pass a 50 ms limit
        # and 60 ms launches fail it, though at reference speed they
        # would take 30 ms.
        self.assertTrue(bs.step_passes(
            step(100, [30.0] * 500, host_ms=2 * bs.REF_MS)))
        self.assertFalse(bs.step_passes(
            step(100, [60.0] * 500, host_ms=2 * bs.REF_MS)))

    def test_tail_over_limit_fails_a_flat_step(self):
        # Every fifth launch is slow: the tail of every window is over.
        lat = self.flat(1000, 4)
        lat[::5] = [bs.LATENCY_LIMIT_MS * 2] * 200
        self.assertFalse(bs.step_passes(step(100, lat)))
        self.assertEqual(bs.ladder_rps([step(100, lat)]), 0)


if __name__ == "__main__":
    unittest.main()
