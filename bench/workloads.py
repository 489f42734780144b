"""Seeded generator of the benchmark's ``stsdecay`` invocations.

Each workload is an endless sequence of rounds.  A round has a fixed
composition of slots (subcommand, state kind, bath layout, grid, format,
units and size); the seed only draws the numbers inside each slot.  So every
seed loads the program with the same mix and sizes.  A run measures a fixed
number of whole rounds, set from its length in seconds and the round's
nominal duration, so every run and every commit does the same work.

The generator emits argv lists for ``python -m stsdecay`` and nothing else:
the output checks re-derive what they need from the argv itself.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("series", "deathtimes", "queries")

# Rows per regular `evolve` invocation, and of the one large JSON invocation
# per round whose buffered output sets the workload's peak RSS.
SERIES_POINTS = 3000
SERIES_BIG_POINTS = 20000
# Rows per `sweep` invocation.
SWEEP_STEPS = 1500
# `verify --seed k` draws k below this; every such battery passed when this
# benchmark was written.
VERIFY_SEEDS = 50
# Verify batteries timed during every run, so that `verify_s` has samples
# on every workload.
VERIFY_PROBES = 10
# Wall seconds of one round, measured on a 2-core Xeon host when this
# benchmark was written: the unit in which a run's length buys rounds.
NOMINAL_ROUND_S = {"series": 7.3, "deathtimes": 7.5, "queries": 5.1}

Argv = list[str]


def _num(x: float) -> str:
    return format(x, ".6g")


def _sts(n1: float, n2: float, r: float) -> Argv:
    return ["--n1", _num(n1), "--n2", _num(n2), "--r", _num(r)]


def _separability_r(n1: float, n2: float) -> float:
    """Squeezing above which a squeezed thermal state is entangled."""
    return math.asinh(math.sqrt(n1 * n2 / (n1 + n2 + 1.0)))


def _entangled_sts(rng: random.Random) -> Argv:
    n1, n2 = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
    r_min = _separability_r(n1, n2)
    return _sts(n1, n2, rng.uniform(r_min + 0.2, r_min + 1.5))


def _standard_form(rng: random.Random) -> Argv:
    b1, b2 = rng.uniform(0.6, 6.0), rng.uniform(0.6, 6.0)
    hi, lo = max(b1, b2), min(b1, b2)
    c = rng.uniform(0.1, 0.9) * math.sqrt((hi + 0.5) * (lo - 0.5))
    return ["--b1", _num(b1), "--b2", _num(b2), "--c", _num(c)]


def _layout(rng: random.Random, layout: str, *, hot: bool | None = None) -> Argv:
    """Bath flags for one of the five layouts.

    ``hot`` forces reservoir occupancies to be positive (True) or zero
    (False); None draws them from [0, 1.5).
    """

    def occupancy() -> float:
        if hot is False:
            return 0.0
        return rng.uniform(0.2 if hot else 0.0, 1.5)

    gamma = rng.uniform(0.5, 2.0)
    if layout == "identical":
        return ["--identical", "--gamma", _num(gamma), "--nr", _num(occupancy())]
    if layout == "single1":
        return ["--single-bath", "--gamma", _num(gamma), "--nr", _num(occupancy())]
    if layout == "single2":
        return ["--gamma2", _num(gamma), "--nr2", _num(occupancy())]
    n_r1 = occupancy()
    n_r2 = n_r1 + rng.uniform(0.1, 1.0) if hot is not False else 0.0
    if layout == "equal_rates":
        return ["--gamma1", _num(gamma), "--nr1", _num(n_r1), "--gamma2", _num(gamma), "--nr2", _num(n_r2)]
    if layout == "unequal_rates":
        gamma2 = gamma * rng.uniform(1.5, 3.0)
        return ["--gamma1", _num(gamma), "--nr1", _num(n_r1), "--gamma2", _num(gamma2), "--nr2", _num(n_r2)]
    raise ValueError(f"unknown layout {layout!r}")


LAYOUTS = ("identical", "single1", "single2", "equal_rates", "unequal_rates")
# Layouts whose death time had a closed form when this benchmark was
# written; only these are given `esd --verify`, which refuses the others.
CLOSED_FORM_LAYOUTS = ("identical", "single1", "single2")


def _series_round(rng: random.Random) -> list[Argv]:
    # Pure, general (zero-temperature bath: decays but stays entangled),
    # standard-form input, and entangled inputs in a hot bath that cross
    # into separability inside the grid.  Evolve takes the two shorthand
    # layouts and the explicit unequal two-bath one.
    kinds = ("pure", "general", "standard", "crossing")
    layouts = ("identical", "single1", "unequal_rates")
    t_max = 8.0  # with gamma >= 0.5, well past every crossing drawn here
    # The large invocation stays entangled (zero-temperature bath), so every
    # cell is a full-length float and its output size barely moves with the seed.
    big = ["evolve", *_entangled_sts(rng), *_layout(rng, "identical", hot=False)]
    big += ["--t-end", _num(t_max), "--points", str(SERIES_BIG_POINTS), "--format", "json"]
    argvs = [big]
    for i in range(12):
        kind, layout = kinds[i % 4], layouts[i % 3]
        if kind == "pure":
            state, bath = _sts(0.0, 0.0, rng.uniform(0.3, 2.0)), _layout(rng, layout)
        elif kind == "general":
            state, bath = _entangled_sts(rng), _layout(rng, layout, hot=False)
        elif kind == "standard":
            state, bath = _standard_form(rng), _layout(rng, layout)
        else:
            state, bath = _entangled_sts(rng), _layout(rng, layout, hot=True)
        t_end = t_max * rng.uniform(0.5, 1.0)
        if (i // 2) % 2:
            grid = ["--t-start", _num(t_end * 1e-4), "--t-end", _num(t_end), "--log-spacing"]
        else:
            grid = ["--t-end", _num(t_end)]
        argv = ["evolve", *state, *bath, *grid, "--points", str(SERIES_POINTS)]
        if i % 2:
            argv += ["--format", "json"]
        if (i // 4) % 2:
            argv += ["--units", "bits"]
        argvs.append(argv)
    return argvs


def _deathtimes_round(rng: random.Random) -> list[Argv]:
    # State sweeps over every layout; occupancy and rate sweeps need a
    # shorthand layout.  Each r sweep is separable over its first quarter;
    # occupancy sweeps keep the other mode below sinh(r)^2 = 0.27, so they
    # stay entangled; nr sweeps start at nr = 0 (zero temperature), and one
    # slot is zero-temperature throughout.  So the mix of separable, finite
    # and marker rows, which sets the cost, is the same for every seed.
    steps = ["--steps", str(SWEEP_STEPS), "--outputs", "ts"]
    argvs = []
    for layout in LAYOUTS:
        bath = _layout(rng, layout, hot=True)
        n1, n2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        argvs.append(["sweep", "--n1", _num(n1), "--n2", _num(n2), "--param", "r",
                      "--min", "0", "--max", _num(4.0 * _separability_r(n1, n2)), *bath, *steps])
        r, n_other = rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.25)
        for swept, other in (("n1", "--n2"), ("n2", "--n1")):
            argvs.append(["sweep", other, _num(n_other), "--r", _num(r), "--param", swept,
                          "--min", "0", "--max", _num(rng.uniform(5.0, 20.0)), *bath, *steps])
    for shorthand in ("--identical", "--single-bath"):
        state = _entangled_sts(rng)
        argvs.append(["sweep", *state, shorthand, "--gamma", _num(rng.uniform(0.5, 2.0)),
                      "--param", "nr", "--min", "0", "--max", _num(rng.uniform(0.5, 3.0)), *steps])
        argvs.append(["sweep", *state, shorthand, "--nr", _num(rng.uniform(0.2, 1.5)),
                      "--param", "gamma", "--min", _num(rng.uniform(0.2, 0.5)),
                      "--max", _num(rng.uniform(2.0, 5.0)), *steps])
    argvs.append(["sweep", "--n1", _num(rng.uniform(0.0, 2.0)), "--n2", _num(rng.uniform(0.0, 2.0)),
                  "--param", "r", "--min", "0", "--max", "2", *_layout(rng, "identical", hot=False), *steps])
    return argvs


def _queries_round(rng: random.Random) -> list[Argv]:
    argvs: list[Argv] = [
        ["report", *_entangled_sts(rng)],
        ["report", *_standard_form(rng), "--format", "json"],
        ["report", *_sts(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 2)), "--units", "bits"],
        ["report", *_entangled_sts(rng), "--t", _num(rng.uniform(0.05, 2.0)), *_layout(rng, "identical")],
        ["report", *_sts(0.0, 0.0, rng.uniform(0.3, 2.0)), "--t", _num(rng.uniform(0.05, 2.0)),
         *_layout(rng, "unequal_rates"), "--format", "json", "--units", "bits", "--outputs", "ef,kappas"],
    ]
    for layout in LAYOUTS:
        argvs.append(["esd", *_entangled_sts(rng), *_layout(rng, layout)])
    argvs.append(["verify", "--seed", str(rng.randrange(VERIFY_SEEDS))])
    for layout in CLOSED_FORM_LAYOUTS:
        argvs.append(["esd", *_entangled_sts(rng), *_layout(rng, layout), "--verify", "--format", "json"])
    # Separable inputs, which `esd` must refuse with exit code 3: a product
    # state (r = 0), and a standard form with a small cross block.
    argvs.append(["esd", *_sts(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), 0.0), *_layout(rng, "identical", hot=True)])
    b1, b2 = rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)
    c = rng.uniform(0.0, 0.9) * math.sqrt((b1 - 0.5) * (b2 - 0.5))
    argvs.append(["esd", "--b1", _num(b1), "--b2", _num(b2), "--c", _num(c), *_layout(rng, "unequal_rates", hot=True)])
    return argvs


_ROUNDS = {"series": _series_round, "deathtimes": _deathtimes_round, "queries": _queries_round}


def rounds(workload: str, seed: int) -> Iterator[list[Argv]]:
    """Endless rounds of argv lists; round i depends only on (workload, seed, i)."""
    make = _ROUNDS[workload]
    i = 0
    while True:
        yield make(random.Random(f"{workload}/{seed}/{i}"))
        i += 1


def rounds_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def verify_probes(workload: str, seed: int) -> list[Argv]:
    """The `verify` batteries a run times after its window."""
    rng = random.Random(f"{workload}/{seed}/verify")
    return [
        ["verify", "--seed", str(rng.randrange(VERIFY_SEEDS)), *(["--format", "json"] if i % 2 else [])]
        for i in range(VERIFY_PROBES)
    ]
