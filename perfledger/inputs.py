"""Seeded workload inputs.

Everything a workload feeds the program is generated here from the
``--seed`` argument alone, so the same seed always produces the same
inputs.  The module imports nothing from ``repro``: the program sees
only what these functions return.
"""

from __future__ import annotations

import random

#: The suite's experiment ids, in paper order.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "figure5", "figure6", "figure7", "figure8",
    "sec2", "sec3", "sec4.1", "sec4.4", "sec4.5", "sec4.6", "sec4.7.3",
)

#: The three researcher commands of ``paper-regen``: arguments to
#: ``python -m repro.suite``.  ``cold`` runs against an empty store,
#: ``warm`` against the store ``cold`` filled in the same cycle.
REGEN_COMMANDS = {"plain": (), "cold": ("--engine",), "warm": ("--engine",)}

#: Orders a cycle may run its commands in: ``cold`` always precedes
#: ``warm``, which reads what ``cold`` wrote.
REGEN_ORDERS = (
    ("plain", "cold", "warm"),
    ("cold", "plain", "warm"),
    ("cold", "warm", "plain"),
)

#: Times a ``service-mix`` episode (one fresh ServiceApp each) names
#: every experiment in a new suite job; with the hits, 40 jobs.
SERVICE_EPISODE_COVERS = 2
SERVICE_EPISODE_JOBS = 40

#: ``cost_suite_grid``'s default chunk size; the design sweep avoids a
#: machine count that is a multiple of it, so the last chunk is ragged.
CHUNK_MACHINES = 256

_CLOCK_NS = tuple(round(4.0 + 0.5 * i, 1) for i in range(25))  # 4.0 .. 16.0
_PIPES = (1, 2, 4, 8, 16)
_BANKS = (64, 128, 256, 512, 1024, 2048, 4096)
_BANK_BUSY = tuple(range(2, 13))
#: Job sizes that split the 18 experiments into suite jobs of 1-4 once.
_SUITE_COVER_SIZES = (1, 2, 3, 4, 4, 4)
#: Clock x pipes x banks value counts of the sweeps of a service-mix
#: episode, one each (80 points each).
_SERVICE_SWEEP_SHAPES = ((4, 4, 5), (5, 4, 4), (4, 5, 4), (8, 2, 5))


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(part) for part in key))


def regen_order(seed: int, cycle: int) -> tuple[str, str, str]:
    """The command order of one ``paper-regen`` cycle."""
    return _rng("paper-regen", seed, cycle).choice(REGEN_ORDERS)


def _axis(parameter: str, values) -> dict:
    return {"parameter": parameter, "values": [float(v) for v in sorted(values)]}


def _sized_axes(rng: random.Random, sizes: tuple[int, ...]) -> list[dict]:
    pools = (
        ("clock.period_ns", _CLOCK_NS),
        ("vector.pipes", _PIPES),
        ("memory.banks", _BANKS),
        ("memory.bank_busy_cycles", _BANK_BUSY),
    )
    return [
        _axis(parameter, rng.sample(pool, size))
        for (parameter, pool), size in zip(pools, sizes)
    ]


def service_episode(seed: int, episode: int) -> list[dict]:
    """Episode ``episode`` of a ``service-mix`` run: a list of job operations.

    Each operation is ``{"op": "hit", "of": i}`` (resubmit the i-th new
    job of the episode, byte for byte) or ``{"op": "suite"|"sweep",
    "body": request}`` (a new submission).  Every episode does the same
    work: 12 new suite jobs on 1-4 experiments that name every
    experiment twice, 4 new sweeps of 80 machines, one of each shape,
    and 24 hits (60%): every new job is resubmitted once and every suite
    job on three or four experiments once more.  The seed and the
    episode number pick how the experiments are grouped, the sweep
    values and the order; a hit always follows the job it resubmits.
    Holding the work fixed keeps the seed from moving the timings:
    experiments differ up to fourfold in cost, and a hit on a sweep
    costs three times one on a small suite job.
    """
    rng = _rng("service-mix", seed, episode)
    subsets: list[list[str]] = []
    for _ in range(SERVICE_EPISODE_COVERS):
        ids = rng.sample(EXPERIMENT_IDS, len(EXPERIMENT_IDS))
        for size in _SUITE_COVER_SIZES:
            subsets.append(ids[:size])
            del ids[:size]
    shapes = list(_SERVICE_SWEEP_SHAPES)
    news: list[dict] = [{"kind": "suite", "suite": {"ids": ids}} for ids in subsets]
    news += [{"kind": "sweep", "sweep": {"anchor": "sx4", "axes": _sized_axes(rng, shape)}}
             for shape in shapes]
    rng.shuffle(news)
    ops: list[dict] = []
    pending: list[int] = []
    submitted = 0
    while submitted < len(news) or pending:
        left = len(news) - submitted
        if left and rng.random() * (left + len(pending)) < left:
            body = news[submitted]
            body["tag"] = f"ledger-{seed}-{episode}-{len(ops)}"
            ops.append({"op": body["kind"], "body": body})
            repeats = 2 if len(body.get("suite", {}).get("ids", ())) >= 3 else 1
            pending += [submitted] * repeats
            submitted += 1
        else:
            ops.append({"op": "hit", "of": pending.pop(rng.randrange(len(pending)))})
    return ops


def design_sweep_axes(seed: int) -> list[dict]:
    """Axes of the ``design-sweep`` grid around ``sx4``.

    Clock x pipes x banks x bank-busy, 980-1020 points, so the work
    hardly depends on the seed; with the six embedded presets the
    machine count is never a multiple of :data:`CHUNK_MACHINES`.
    """
    rng = _rng("design-sweep", seed)
    while True:
        sizes = (
            rng.randint(8, 14), rng.randint(3, 5), rng.randint(4, 7), rng.randint(4, 8)
        )
        points = sizes[0] * sizes[1] * sizes[2] * sizes[3]
        if 980 <= points <= 1020 and (points + 6) % CHUNK_MACHINES:
            return _sized_axes(rng, sizes)
