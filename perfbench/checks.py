"""Independent checks of every op's output.

Nothing here imports ``blowdown``: each expected value is recomputed from
the dataset files with the small exact routines below, so a wrong answer
from the program cannot vouch for itself.  Every checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

K_SQUARED = {"main_k3": 3, "pencil2_k3": 3, "k4": 4}
HAS_ERRATA = {"main_k3": True, "pencil2_k3": True, "k4": False}


def hj_fraction(p: int, q: int) -> tuple[int, ...]:
    """Negative-regular continued fraction of p/q (entries at least 2)."""
    out = []
    while q:
        b = -(-p // q)
        out.append(b)
        p, q = q, b * q - p
    return tuple(out)


def continuant(bs) -> int:
    """Numerator of b_1 - 1/(b_2 - 1/(...)), by the three-term recursion."""
    prev, cur = 0, 1
    for b in bs:
        prev, cur = cur, b * cur - prev
    return cur


def reduces_to_base(chain: tuple[int, ...]) -> bool:
    """Undo end moves until (4) or (3, 2, ..., 2, 3) is reached."""
    cur = chain
    while cur:
        if cur == (4,) or (
            len(cur) >= 2 and cur[0] == cur[-1] == 3 and set(cur[1:-1]) <= {2}
        ):
            return True
        if cur[0] == 2 and cur[-1] >= 3:
            cur = cur[1:-1] + (cur[-1] - 1,)
        elif cur[0] >= 3 and cur[-1] == 2:
            cur = (cur[0] - 1,) + cur[1:-1]
        else:
            return False
    return False


def solves_chain_system(bs, ds) -> bool:
    """Do the discrepancies satisfy sum_i (G_i . G_j) d_i = 2 - b_j exactly?

    On a chain G_j^2 = -b_j, neighbours meet once and the rest are disjoint.
    """
    k = len(bs)
    for j in range(k):
        total = -bs[j] * ds[j]
        if j > 0:
            total += ds[j - 1]
        if j + 1 < k:
            total += ds[j + 1]
        if total != 2 - bs[j]:
            return False
    return True


def _chain_length(data: dict) -> int:
    return sum(len(chain["curves"]) for chain in data["chains"])


def check_verify_clean(name: str, data: dict, rc: int, result: dict) -> list[str]:
    problems = []
    if rc != 0 or result.get("ok") is not True:
        problems.append(f"verify {name}: exit {rc}, ok={result.get('ok')}")
    if result.get("errata_found") is not HAS_ERRATA[name]:
        problems.append(
            f"verify {name}: errata_found={result.get('errata_found')}, "
            f"expected {HAS_ERRATA[name]}"
        )
    bad = [c["name"] for c in result.get("checks", ())
           if c["status"] not in ("pass", "erratum")]
    if bad:
        problems.append(f"verify {name}: checks not passing: {bad}")
    return problems


def check_contract(name: str, data: dict, rc: int, result: dict) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"contract {name}: exit {rc}")
    recorded = [(c["p"], c["q"], c["curves"]) for c in data["chains"]]
    got = [(c["p"], c["q"], c["curves"]) for c in result.get("chains", ())]
    if got != recorded:
        problems.append(f"contract {name}: chains {got} differ from the dataset")
    for chain in result.get("chains", ()):
        p, q = chain["p"], chain["q"]
        shape = tuple(chain["shape"])
        if shape != hj_fraction(p * p, p * q - 1):
            problems.append(f"contract {name}: C({p},{q}) shape {shape}")
        ds = [Fraction(d) for d in chain["discrepancies"]]
        if len(ds) != len(shape) or not solves_chain_system(shape, ds):
            problems.append(f"contract {name}: C({p},{q}) discrepancies {ds}")
        elif not all(0 < d < 1 for d in ds):
            problems.append(f"contract {name}: C({p},{q}) discrepancy outside (0, 1)")
    k2 = Fraction(result.get("k_squared", "nan"))
    gain = k2 - Fraction(result.get("k_squared_resolution", "nan"))
    if gain != _chain_length(data):
        problems.append(f"contract {name}: K^2 gain {gain}, expected {_chain_length(data)}")
    if k2 != K_SQUARED[name]:
        problems.append(f"contract {name}: K^2 {k2}, expected {K_SQUARED[name]}")
    return problems


def check_invariants(name: str, data: dict, rc: int, result: dict) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"invariants {name}: exit {rc}")
    euler = 3 + len(data["steps"]) - _chain_length(data)
    k2 = Fraction(result.get("k_squared", "nan"))
    expected = {
        "k_squared": K_SQUARED[name],
        "euler": euler,
        "chi": 1,
        "b2_plus": 1,
        "pi1_trivial": True,
        "fingerprint": f"P2 # {euler - 3} P2bar",
    }
    got = dict(result, k_squared=k2)
    for key, value in expected.items():
        if got.get(key) != value:
            problems.append(f"invariants {name}: {key} {got.get(key)!r}, expected {value!r}")
    if k2 + euler != 12 * result.get("chi", 0):
        problems.append(f"invariants {name}: Noether fails, K^2 {k2}, e {euler}")
    return problems


REPLAY_CHECKERS = {
    "verify": check_verify_clean,
    "contract": check_contract,
    "invariants": check_invariants,
}


def check_mutant(mutant, citation: str, rc: int, result: dict) -> list[str]:
    """The mutant must fail, at the check its field is graded by, with the
    dataset's citation attached."""
    label = f"{mutant.dataset} {mutant.field}={mutant.new!r}"
    problems = []
    if rc != 1 or result.get("ok") is not False:
        problems.append(f"mutant {label}: exit {rc}, ok={result.get('ok')}")
    checks = {c["name"]: c for c in result.get("checks", ())}
    named = checks.get(mutant.check)
    if named is None or named["status"] != "fail":
        status = named and named["status"]
        problems.append(f"mutant {label}: check {mutant.check} is {status}")
    elif f"source: {citation}" not in named["details"]:
        problems.append(f"mutant {label}: {mutant.check} lacks the citation")
    return problems


def check_chains(max_len: int, rc: int, result: dict) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"tchain gen {max_len}: exit {rc}")
    records = result.get("chains", ())
    expected = 2 ** (max_len + 1) - max_len - 2
    if result.get("count") != expected or len(records) != expected:
        problems.append(
            f"tchain gen {max_len}: count {result.get('count')} with "
            f"{len(records)} records, expected {expected}"
        )
    chains = [tuple(r["chain"]) for r in records]
    if len(set(chains)) != len(chains):
        problems.append(f"tchain gen {max_len}: repeated chains")
    for chain, record in zip(chains, records):
        d, n, a = record["d"], record["n"], record["a"]
        if not 1 <= len(chain) <= max_len or not reduces_to_base(chain):
            problems.append(f"tchain gen {max_len}: {chain} is not class T")
        elif not (n >= 2 and 0 < a < n and gcd(a, n) == 1 and d >= 1):
            problems.append(f"tchain gen {max_len}: {chain} has bad (d, n, a)")
        elif continuant(chain) * (d * n * a - 1) != d * n * n * continuant(chain[1:]):
            problems.append(f"tchain gen {max_len}: {chain} has wrong (d, n, a)")
        elif (d == 1) != ("p" in record) or (
            d == 1 and (record["p"], record["q"]) != (n, a)
        ):
            problems.append(f"tchain gen {max_len}: {chain} has wrong (p, q)")
        if problems:
            break
    return problems
