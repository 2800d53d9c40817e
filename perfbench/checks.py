"""Per-request output checks; a request that fails one counts in ``failed``.

The checks rely on nothing from pnsheaf: they compare the JSON a request
printed with facts the generator knows (ranks, grid sizes, the ambient) and
with identities any correct answer satisfies.  For the default seed the
stdout must also match, byte for byte, the golden recorded at the seed
commit.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

from .inputs import Request, Round

DEFAULT_SEED = 1
GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

HOLD = "hypotheses-hold"
UNIQUE = "unique-up-to-scalar"


@dataclass
class Response:
    exit_code: int | None  # None: main() raised, or the child died
    stdout: str
    stderr: str
    program_s: float
    peak_rss_kb: int


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _exit_for(ok: bool, got: int) -> None:
    _expect(got == (0 if ok else 1), f"exit code {got} disagrees with the verdict")


def _alternating(h: list[int]) -> int:
    return sum((-1) ** p * d for p, d in enumerate(h))


def _check_one(req: Request, resp: Response) -> dict:
    _expect(resp.exit_code in (0, 1), f"exit code {resp.exit_code}")
    stray = [ln for ln in resp.stderr.splitlines() if not ln.startswith("error:")]
    _expect(not stray, f"unexpected stderr {stray[:1]!r}")
    try:
        out = json.loads(resp.stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None
    _expect(isinstance(out, dict), "stdout is not a JSON object")
    f, rc, kind = req.facts, resp.exit_code, req.kind
    if kind == "cohomology":
        _expect(len(out["h"]) == f["n"] + 1, "table length is not n + 1")
        _expect(out["euler_characteristic"] == _alternating(out["h"]), "chi != alternating sum")
        _expect(rc == 0, "cohomology exited 1")
    elif kind == "chi":
        _expect(out["chi"] == _alternating(out["h"]), "chi != alternating sum of its own h")
        _expect(rc == 0, "chi exited 1")
    elif kind == "chern":
        _expect(out["rank"] == f["rank"], f"rank {out['rank']} != {f['rank']}")
        _expect(out["chern_character"][0] == str(f["rank"]), "ch_0 != rank")
        _expect(out["total_chern"][0] == 1, "c_0 != 1")
        _expect(rc == 0, "chern exited 1")
    elif kind == "porteous":
        _expect((out["e"], out["g"]) == (f["e"], f["g"]), "ranks of E, G disagree")
        _expect(out["codim"] == f["e"] - f["g"] + 1, "codim != e - g + 1")
        _expect(rc == 0, "porteous exited 1")
    elif kind == "certificate":
        _expect((out["e"], out["g"]) == (f["e"], f["g"]), "ranks of E, G disagree")
        _expect(len(out["required"]) == f["e"] - f["g"], "required groups != e - g")
        _expect(out["verdict"] == all(r["ok"] for r in out["required"]), "verdict != all ok")
        _exit_for(out["verdict"], rc)
    elif kind == "en-resolution":
        _expect((out["e"], out["g"]) == (f["e"], f["g"]), "ranks of E, G disagree")
        _expect(len(out["terms"]) == f["e"] - f["g"] + 1, "terms != e - g + 1")
        _expect(rc == 0, "en-resolution exited 1")
    elif kind == "check":
        _expect(out["theorem"] == f["theorem"], f"theorem {out['theorem']!r}")
        _exit_for(out["verdict"] == HOLD, rc)
    elif kind == "sweep":
        _expect(out["count"] == f["count"], f"count {out['count']} != grid size {f['count']}")
        _expect(len(out["results"]) == f["count"], "results != grid size")
        failures = sum(1 for r in out["results"] if r["verdict"] != HOLD)
        _expect(out["failures"] == failures, "failures miscounted")
        _exit_for(failures == 0, rc)
    elif kind == "pfaff-uniqueness":
        dim = out["section_space_dim"]
        # a form vanishes on its own singular scheme, so the space holds it
        _expect(dim >= 1, "section space misses the form itself")
        _expect((out["verdict"] == UNIQUE) == (dim == 1), "verdict disagrees with dimension")
        _exit_for(out["verdict"] == UNIQUE, rc)
    elif kind == "pfaff-singular":
        _expect(len(out["charts"]) == f["n"] + 1, "chart count != n + 1")
        _expect(0 <= out["dimension"] < f["n"], "singular scheme dimension out of range")
        _expect(rc == 0, "singular exited 1")
    elif kind == "pfaff-sections":
        _expect(out["dim"] == len(out["basis"]) >= 1, "dimension disagrees with basis")
        _expect(rc == 0, "sections exited 1")
    elif kind == "pfaff-annihilator":
        slices = out["slices"]
        _expect([s["degree"] for s in slices] == list(range(f["bound"] + 1)), "slice degrees")
        _expect(all(s["dim"] == len(s["generators"]) for s in slices), "dim != generators")
        _expect(slices[1]["dim"] >= 1, "degree-1 kernel misses the Euler field")
        _expect(rc == 0, "annihilator exited 1")
    else:
        raise CheckFailed(f"no check for request kind {kind!r}")
    return out


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest(resp: Response) -> dict:
    return {"exit": resp.exit_code, "sha256": hashlib.sha256(resp.stdout.encode()).hexdigest()}


def check_round(rnd: Round, responses: list[Response], goldens: dict | None) -> list[str | None]:
    """One verdict per request: None when it passed, else the reason.

    ``goldens`` maps request keys to recorded digests; pass it for the
    default seed only.  Requests sharing a ``pair`` id are cross-checked:
    ``chi`` must equal the alternating sum of the matching ``cohomology``.
    """
    verdicts: list[str | None] = []
    parsed: dict[tuple[str, str], dict] = {}
    for req, resp in zip(rnd.requests, responses, strict=True):
        try:
            out = _check_one(req, resp)
            if goldens is not None:
                want = goldens.get(req.key(rnd.forms))
                _expect(want is not None, "no golden recorded for this request")
                _expect(digest(resp) == want, "stdout differs from the golden")
        except CheckFailed as exc:
            verdicts.append(str(exc))
            continue
        except (KeyError, IndexError, TypeError) as exc:
            verdicts.append(f"malformed response: {type(exc).__name__} {exc}")
            continue
        verdicts.append(None)
        if req.pair is not None:
            parsed[(req.pair, req.kind)] = out
    for idx, req in enumerate(rnd.requests):
        if req.kind != "chi" or verdicts[idx] is not None:
            continue
        table = parsed.get((req.pair, "cohomology"))
        if table is None:
            verdicts[idx] = "matching cohomology response failed"
        elif parsed[(req.pair, "chi")]["chi"] != _alternating(table["h"]):
            verdicts[idx] = "chi != alternating sum of the cohomology table"
    return verdicts
