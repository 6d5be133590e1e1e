"""One benchmark process: set a workload up, time its requests, trace them.

run.py starts this script in a fresh interpreter per measurement and reads
the JSON object it prints as its last line of standard output.

Modes:
  setup   set up and exit; reports the set-up time only.
  timed   set up, then time whole rounds of requests, one at a time, until
          --seconds have passed and at least MIN_REQUESTS have run.
  trace   timed, then replay the first rounds with every layer traced and
          compare their result digest with the untraced one.

Times are reported in reference seconds.  The speed of a shared machine
drifts by tens of percent over seconds to minutes, and that drift slows every
piece of Python code alike.  So every time is taken by a ReferenceClock, which
times a fixed stdlib-only reference loop after each stretch of work and scales
the stretch by REFERENCE_S over the mean of the reference times around it:
set-up phase by phase, each request on its own, and the traced self times by
the median scale of the traced requests.  A reference second is thus the time
the work would take on a machine where the loop takes REFERENCE_S.  Raw
seconds are reported alongside.
"""

import time
from fractions import Fraction


def _reference_loop():
    # Dict updates on tuple keys and Fraction sums: the operations tqps spends
    # its time on, without calling tqps.
    counts = {}
    total = Fraction(0)
    for i in range(300):
        key = (i & 7, ("T", i % 5))
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 11, 1 + (i & 3))
    return total, counts


def reference_s():
    """Best of three timings of the reference loop."""
    best = None
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


# The loop's best time seen on a 2-core Xeon at 2.1 GHz under Python 3.11.
REFERENCE_S = 0.00065


class ReferenceClock:
    """Times stretches of work in raw and in reference seconds.

    `lap` returns the (raw, reference) seconds since the last lap or
    restart, then re-times the reference loop, so the scale follows the
    machine's drift.  The reference timings themselves are never counted.
    The totals sum every lap.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self._reference = reference_s()
        self.restart()

    def restart(self):
        self._start = time.perf_counter()

    def lap(self):
        raw = time.perf_counter() - self._start
        after = reference_s()
        scaled = raw * 2 * REFERENCE_S / (self._reference + after)
        self._reference = after
        self.raw += raw
        self.scaled += scaled
        self.restart()
        return raw, scaled


# Set-up is timed from here on, before any import of tqps.
_SETUP_CLOCK = ReferenceClock()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from tqps import tensor_gluing  # noqa: E402

# Bound here, outside tqps, so the tracer never counts the digest step.
from tqps.util import canonical_json  # noqa: E402

# At least ten samples beyond the 90th percentile.
MIN_REQUESTS = 100


def execute(request, clock):
    """Run one request; return ((raw, reference) seconds of the call, as a
    lap of `clock`, report, failure reason or None).

    An exception is reported as an error, never as a refuted claim.
    """
    try:
        report = request.call()
    except Exception:
        seconds = clock.lap()
        traceback.print_exc()
        return seconds, None, "error"
    seconds = clock.lap()
    reason = request.verify(report)
    if reason is not None:
        print("%s: %s" % (request.kind, reason), file=sys.stderr)
        return seconds, report, "mismatch"
    return seconds, report, None


class Tally:
    """Times, checks and failures of a sequence of requests, and the sha256
    over the canonical JSON of every report in its first digest_rounds."""

    def __init__(self, digest_rounds):
        self.digest_rounds = digest_rounds
        self.clock = ReferenceClock()
        self.attempted = 0
        self.times = []
        self.raw_times = []
        self.by_kind = {}
        # Checks per second of request time, one (reference, raw) pair per
        # round: a median over rounds, unlike a total, is not moved by the
        # few requests a busy machine interrupts.
        self.round_rates = []
        self.failures = Counter()
        self.digest = hashlib.sha256()
        self.digest_checks = 0
        self.digest_seconds = 0.0

    def run_round(self, requests, index):
        checks, seconds, raw_seconds = 0, 0.0, 0.0
        for request in requests:
            self.clock.restart()
            (raw, elapsed), report, failure = execute(request, self.clock)
            self.attempted += 1
            # Only a request that reached the right verdict has a time to verdict.
            if failure is None:
                self.times.append(elapsed)
                self.raw_times.append(raw)
                self.by_kind.setdefault(request.kind, []).append(elapsed)
                checks += request.checks
                seconds += elapsed
                raw_seconds += raw
            else:
                self.failures[failure] += 1
            if index < self.digest_rounds:
                self.digest.update(canonical_json(report).encode())
                self.digest.update(b"\n")
                self.digest_checks += request.checks
                self.digest_seconds += elapsed
        if seconds > 0:
            self.round_rates.append((checks / seconds, checks / raw_seconds))

    def scale(self):
        """Median reference seconds per raw second over the requests."""
        return statistics.median(t / r for t, r in zip(self.times, self.raw_times))

    def summary(self):
        return {
            "attempted": self.attempted,
            "times": self.times,
            "raw_times": self.raw_times,
            "scale_p50": self.scale(),
            "kinds": {kind: len(t) for kind, t in self.by_kind.items()},
            "kind_p50_s": {kind: statistics.median(t) for kind, t in self.by_kind.items()},
            "round_rates": self.round_rates,
            "errors": self.failures["error"],
            "mismatches": self.failures["mismatch"],
            "digest": self.digest.hexdigest(),
            "digest_checks": self.digest_checks,
        }


def set_up(workload, seed, tiny, clock):
    """Build the input pool and run one untimed request of each kind.

    `clock` runs on from the start of the process; every phase is a lap.
    """
    clock.lap()
    pool = [workload.round(seed, i, tiny) for i in range(workload.pool_rounds)]
    warm_up = {}
    # Round -1 is never timed: its inputs differ from every pool round's.
    for request in workload.round(seed, -1, tiny):
        warm_up.setdefault(request.kind, request)
    clock.lap()
    for request in warm_up.values():
        # A failed warm-up is reported on stderr; the timed requests count it.
        execute(request, clock)
    clock.lap()
    return pool, list(warm_up.values())


def timed(pool, seconds, digest_rounds):
    tally = Tally(digest_rounds)
    start = time.perf_counter()
    index = 0
    while (
        index < digest_rounds
        or tally.attempted < MIN_REQUESTS
        or time.perf_counter() - start < seconds
    ):
        tally.run_round(pool[index % len(pool)], index)
        index += 1
    return tally


def traced(workload, seed, tiny, warm_up):
    """Replay the first trace_rounds with every layer traced.

    The atom product cache is emptied and warmed again first, so the traced
    requests meet it as the timed ones did.  Input generation is traced too.
    """
    tensor_gluing._mul_toeplitz_atoms.cache_clear()
    for request in warm_up:
        execute(request, ReferenceClock())
    tracer = tracing.Tracer()
    tracer.install()
    rounds = [workload.round(seed, i, tiny) for i in range(workload.trace_rounds)]
    tally = Tally(workload.trace_rounds)
    for index, requests in enumerate(rounds):
        tally.run_round(requests, index)
    layers = tracer.metrics(tally.scale())
    layers["tensor_gluing.terms_built"] = tracer.terms_built
    return tally, layers


def hit_ratio(before, after):
    hits, misses = after.hits - before.hits, after.misses - before.misses
    return hits / (hits + misses) if hits + misses else 0.0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "timed", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    pool, warm_up = set_up(workload, args.seed, args.tiny, _SETUP_CLOCK)
    out = {
        "setup_s": _SETUP_CLOCK.scaled,
        "setup_raw_s": _SETUP_CLOCK.raw,
        "defect_seeds": workloads.DEFECT_SEEDS,
    }
    if args.mode != "setup":
        cache_info = tensor_gluing._mul_toeplitz_atoms.cache_info
        before = cache_info()
        tally = timed(pool, args.seconds, workload.trace_rounds)
        timed_hit_ratio = hit_ratio(before, cache_info())
        out.update(tally.summary())
        if args.mode == "trace":
            replay, layers = traced(workload, args.seed, args.tiny, warm_up)
            layers["toeplitz_core.atom_cache.hit_ratio"] = timed_hit_ratio
            layers["trace.overhead_ratio"] = replay.digest_seconds / tally.digest_seconds
            out["layers"] = layers
            out["traced"] = replay.summary()
        # ru_maxrss is in kilobytes on Linux.
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
