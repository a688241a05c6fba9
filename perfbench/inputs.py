"""Seeded input generation: the same seed gives byte-identical inputs.

Each workload's inputs are plain JSON-able data (kernel names, source
text, argument lists), built only from ``--seed``; :func:`digest` is
the SHA-256 of their canonical JSON, which the output records.
"""

from __future__ import annotations

import hashlib
import json
import random

LEVELS = ("none", "medium", "full")

#: The Figure-19 kernels whose cells take about a second or less (on a
#: 2-core x86-64 VM with the compiled engine: li, mesa ~0.8 s a cell,
#: ijpeg, vortex ~1 s, mpeg2_d ~0.3 s; the others take 2-12 s, which
#: would leave too few cells in a run for a latency percentile). The
#: seed draws their order. Drawing a subset instead moved ops_per_s and
#: op_ms by more than their bounds between seeds, because cell costs
#: differ several-fold between kernels.
FIG19_KERNELS = ("ijpeg", "li", "mesa", "mpeg2_d", "vortex")

#: Small programs the service mix simulates; every one takes two ints.
SERVICE_TEMPLATES = {
    "fill_sum": """
int a[64];
int kernel(int n, int m)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { a[i] = i * m; s = s + a[i]; }
    return s;
}
""",
    "dot": """
int x[64];
int y[64];
int kernel(int n, int m)
{
    int i; int s = 0;
    for (i = 0; i < n; i++) { x[i] = i + m; y[i] = m - i; }
    for (i = 0; i < n; i++) { s = s + x[i] * y[i]; }
    return s;
}
""",
    "hist": """
int h[8];
int kernel(int n, int m)
{
    int i; int s = 0;
    for (i = 0; i < 8; i++) { h[i] = 0; }
    for (i = 0; i < n; i++) { h[(i * m) & 7] = h[(i * m) & 7] + 1; }
    for (i = 0; i < 8; i++) { s = s + h[i] * i; }
    return s;
}
""",
    "prefix": """
int p[64];
int kernel(int n, int m)
{
    int i; int s;
    p[0] = m;
    for (i = 1; i < n; i++) { p[i] = p[i - 1] + i * m; }
    s = p[n - 1];
    return s;
}
""",
}
SERVICE_ENTRY = "kernel"
#: The level the service's simulate requests compile at.
SERVICE_LEVEL = "full"

#: Service request mix, all simulate requests, as the weight of each kind
#: of draw: a warm program with fresh args, an exact repeat of an earlier
#: request on the same connection, and a never-seen source variant, which
#: the server must compile first (sent as three requests, one per level,
#: so the run also yields the variant's simulated speedup).
#:
#: These shares are assumptions: no recorded traffic of ``repro serve``
#: exists to take them from. They are placeholders until a recorded
#: traffic sample is in the repository, chosen for these reasons:
#:
#: * variant 0.05: 14% of requests, so a 600-request run holds 78
#:   compile misses. Each miss's latency moves by a factor of two or
#:   more with what the other connection is doing, so ``miss_ms_p50``
#:   needs that many: with 48 (a 0.03 share) its spread over ten runs
#:   read 0.13-0.18 of its median;
#: * repeat 0.15: 14% of requests; answering them from a result cache
#:   would raise ``ops_per_s`` by about a tenth, above its run-to-run
#:   spread (under 5% of its median), so such a cache shows; fresh work
#:   stays the bulk;
#: * fresh, the rest: per-request layers on warm programs dominate.
#:
#: Each run prints the request shares it measured next to the shares
#: these weights give (:func:`request_shares`).
SERVICE_MIX = (("fresh", 0.80), ("repeat", 0.15), ("variant", 0.05))
#: Variants come at fixed places, every this many draws (the variant
#: share of SERVICE_MIX), so every run compiles the same number of
#: variants of the same templates and ``miss_ms_p50`` is a median over
#: the same mix of compiles in every run. Fresh and repeat draws are
#: seeded.
VARIANT_EVERY = round(1 / dict(SERVICE_MIX)["variant"])
#: Requests one draw of each kind sends.
DRAW_REQUESTS = {"fresh": 1, "repeat": 1, "variant": len(LEVELS)}
#: Args of every variant; variants take the templates in turn, so each
#: run's variant speedups cover the templates evenly.
VARIANT_ARGS = [32, 7]


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(part) for part in (seed, *salt)))


def compile_suite(seed: int) -> list[dict]:
    """Every registered kernel at every level, in a seeded order."""
    from repro.programs import all_kernels
    items = [{"kernel": kernel.name, "entry": kernel.entry,
              "source": kernel.source, "level": level}
             for kernel in all_kernels() for level in LEVELS]
    _rng(seed, "compile_suite").shuffle(items)
    return items


def fig19_sweep(seed: int) -> dict:
    """The Figure-19 kernels in a seeded order."""
    kernels = list(FIG19_KERNELS)
    _rng(seed, "fig19_sweep").shuffle(kernels)
    return {"kernels": kernels}


def variant_source(template: str, salt: int) -> str:
    """A never-seen variant of ``template``: the same program with a
    constant folded into its result."""
    return SERVICE_TEMPLATES[template].replace(
        "return s;", f"return s + {salt};")


def _args(rng: random.Random) -> list[int]:
    """Fresh args ``[n, m]``. n stays within the templates' 64-element
    arrays and keeps each simulation short (a few ms), so the
    per-request layers dominate; m is wide enough that two fresh draws
    of a template coincide about once in 41 x 999, so exact repeats come
    from the repeat share alone."""
    return [rng.randint(8, 48), rng.randint(1, 999)]


def request_shares() -> dict:
    """The share of requests of each kind that SERVICE_MIX gives."""
    sent = {kind: weight * DRAW_REQUESTS[kind] for kind, weight in SERVICE_MIX}
    total = sum(sent.values())
    return {kind: share / total for kind, share in sent.items()}


def request_source(request: dict) -> str:
    if request["salt"]:
        return variant_source(request["template"], request["salt"])
    return SERVICE_TEMPLATES[request["template"]]


def service_mix(seed: int, length: int,
                lanes: int = 2) -> list[list[dict]]:
    """Per-connection request streams of ``length`` requests each.

    A request is ``{"template", "salt", "level", "args", "mix"}``; salt
    0 is the warm program itself, any other salt a variant (see
    :func:`variant_source`). Repeats copy an earlier fresh request of
    the same stream exactly.
    """
    names = sorted(SERVICE_TEMPLATES)
    kinds = [kind for kind, _ in SERVICE_MIX if kind != "variant"]
    weights = [weight for kind, weight in SERVICE_MIX if kind in kinds]
    streams = []
    for lane in range(lanes):
        rng = _rng(seed, "service_mix", lane)
        stream: list[dict] = []
        sims: list[dict] = []
        variants = draws = 0
        while len(stream) < length:
            draws += 1
            if draws % VARIANT_EVERY == 0:
                kind = "variant"
            else:
                kind = rng.choices(kinds, weights)[0]
            if kind == "repeat" and sims:
                stream.append(dict(rng.choice(sims), mix="repeat"))
            elif kind == "variant":
                variants += 1
                template = names[(lane * 2 + variants) % len(names)]
                salt = (lane + 1) * 1_000_000 + variants
                for level in LEVELS:
                    stream.append({"template": template, "salt": salt,
                                   "level": level,
                                   "args": list(VARIANT_ARGS),
                                   "mix": "variant"})
            else:
                request = {"template": rng.choice(names), "salt": 0,
                           "level": SERVICE_LEVEL, "args": _args(rng),
                           "mix": "fresh"}
                sims.append(request)
                stream.append(request)
        streams.append(stream[:length])
    return streams


def digest(inputs) -> str:
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
