"""The benchmark's workloads: seeded inputs, one pass of fixed work, its facts.

Each workload runs in one process with one closed-loop client: a pass
issues its calls one after another, each waiting for the previous one.
The seed only shapes the inputs handed to the library; the work a pass
does, and the facts it answers, do not depend on it.

``square6561``     full pipeline on M(2,GF(3)) x M(2,GF(3)), the large
                   structured ring the unit-orbit engine targets.
``table512``       the user-supplied-ring path: Cayley tables of
                   ex5_5 x M(2,GF(2)) x GF(2) under a seeded relabelling,
                   loaded from JSON, axiom-validated, character searched.
``chain_queries``  in-process CLI calls on commutative chain-ring products
                   of large characteristic, where cyclotomic reduction
                   dominates the Krawtchouk tables.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np


@dataclass
class PassResult:
    """Timings and checked facts of one pass.

    ``facts`` maps each fact to the answers the pass gave for it, one per
    call that answered it.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    build_s: float = 0.0
    weights_ready_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    facts: dict[str, list] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def answer(self, facts: dict, prefix: str = "") -> None:
        for key, value in facts.items():
            self.facts.setdefault(prefix + key, []).append(value)


def _multiset(table) -> dict[str, int]:
    return {str(w): n for w, n in sorted(table.multiset().items())}


def _record_error(result: PassResult, where: str) -> None:
    result.errors.append(f"{where}: {traceback.format_exc(limit=3)}")
    print(result.errors[-1], file=sys.stderr)


def _structure_facts(info: dict) -> dict:
    return {
        "elements": info["size"],
        "units": info["units"],
        "radical_size": info["radical_size"],
        "is_frobenius": info["is_frobenius"],
    }


def _dual_facts(part, char) -> dict:
    from frobring import duality, partitions

    left = duality.dual_partition(part, char, "left")
    right = duality.dual_partition(part, char, "right")
    return {
        "left_dual_block_sizes": sorted(left.block_sizes()),
        "right_dual_block_sizes": sorted(right.block_sizes()),
        "left_equals_right": partitions.equals(left, right),
        "self_dual": partitions.equals(part, left),
        "reflexive": duality.is_reflexive(part, char),
    }


class Square6561:
    """Build, describe, character, weights, partitions, tables, duals, reflexivity."""

    name = "square6561"

    def __init__(self, seed: int, workdir: Path):
        self.unit_draw = random.Random(seed).randrange(1 << 30)

    def inputs(self) -> dict:
        return {"ring": "M(2,GF(3)) x M(2,GF(3))", "unit_draw": self.unit_draw}

    def run_pass(self) -> PassResult:
        from frobring import characters, duality, partitions, rings, weights

        result = PassResult()
        facts: dict = {}
        start, cpu_start = perf_counter(), process_time()
        try:
            mat = rings.build_matrix_ring(2, rings.build_gf(3))
            ring = rings.build_product([mat, mat])
            result.build_s = perf_counter() - start
            facts.update(_structure_facts(ring.describe()))
            canonical = characters.canonical_generating_character(ring)
            unit = ring.units[self.unit_draw % len(ring.units)]
            char = characters.translate(canonical, unit, "left")
            facts["character_order"] = char.order
            table = weights.weight_table(ring, char)
            result.weights_ready_s.append(perf_counter() - start)
            facts["weight_multiset"] = _multiset(table)
            hom = partitions.hom_partition(ring, char)
            sym2 = partitions.symmetrized_power_partition(
                ring, partitions.rank_partition(mat))
            facts["hom_blocks"] = hom.num_blocks
            facts["hom_block_sizes"] = sorted(hom.block_sizes())
            facts["hom_equals_sym2_rank"] = partitions.equals(hom, sym2)
            facts["hom_invariant"] = partitions.is_invariant(hom)
            for side in ("left", "right"):
                duality.krawtchouk_table(hom, char, side)
            facts.update(_dual_facts(hom, char))
        except Exception:  # a failed stage is a failed answer, not a crash
            _record_error(result, self.name)
        result.wall_s = perf_counter() - start
        result.cpu_s = process_time() - cpu_start
        result.latencies_s.append(result.wall_s)
        result.answer(facts)
        return result


def _ex5_5_tables() -> tuple[np.ndarray, np.ndarray, int]:
    """The 16-element ring of 4x4 binary matrices with rows
    (a,0,0,0), (0,a,b,0), (0,0,c,0), (d,0,0,c), indexed a*8+b*4+c*2+d."""
    bits = [((i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1) for i in range(16)]
    mul = np.zeros((16, 16), dtype=np.int64)
    for x, (a, b, c, d) in enumerate(bits):
        for y, (e, f, g, h) in enumerate(bits):
            mul[x, y] = (a * e % 2) * 8 + ((a * f + b * g) % 2) * 4 \
                + (c * g % 2) * 2 + (d * e + c * h) % 2
    add = np.arange(16)[:, None] ^ np.arange(16)[None, :]
    return add, mul, 8 + 2


def _m2_gf2_tables() -> tuple[np.ndarray, np.ndarray, int]:
    """2x2 matrices over GF(2), entries packed as bits m00 m01 m10 m11."""
    mats = np.array([[[(i >> 3) & 1, (i >> 2) & 1], [(i >> 1) & 1, i & 1]]
                     for i in range(16)])
    prod = np.einsum("xij,yjk->xyik", mats, mats) % 2
    mul = prod[..., 0, 0] * 8 + prod[..., 0, 1] * 4 + prod[..., 1, 0] * 2 + prod[..., 1, 1]
    add = np.arange(16)[:, None] ^ np.arange(16)[None, :]
    return add, mul, 0b1001


def _gf2_tables() -> tuple[np.ndarray, np.ndarray, int]:
    return np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 1]]), 1


def product_tables(factors) -> tuple[np.ndarray, np.ndarray, int]:
    """Cayley tables of a direct product, first factor most significant."""
    add, mul, one = factors[0]
    for fadd, fmul, fone in factors[1:]:
        m = fadd.shape[0]
        add = (add[:, None, :, None] * m + fadd[None, :, None, :]).reshape(
            add.shape[0] * m, -1)
        mul = (mul[:, None, :, None] * m + fmul[None, :, None, :]).reshape(
            mul.shape[0] * m, -1)
        one = one * m + fone
    return add, mul, one


def relabelled_tables(seed: int) -> dict:
    """Tables of ex5_5 x M(2,GF(2)) x GF(2), relabelled by a permutation fixing 0."""
    add, mul, one = product_tables([_ex5_5_tables(), _m2_gf2_tables(), _gf2_tables()])
    n = add.shape[0]
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    perm = np.array([0] + rest)
    new_add = np.empty_like(add)
    new_mul = np.empty_like(mul)
    new_add[np.ix_(perm, perm)] = perm[add]
    new_mul[np.ix_(perm, perm)] = perm[mul]
    return {"size": n, "add": new_add.tolist(), "mul": new_mul.tolist(),
            "one": int(perm[one]), "name": "ex5_5 x M(2,GF(2)) x GF(2), relabelled"}


class Table512:
    """Load, validate, describe, search a character, weights, duals, reflexivity."""

    name = "table512"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "table512-input.json"
        self.path.write_text(json.dumps(relabelled_tables(seed)))

    def inputs(self) -> dict:
        return {"ring": "ex5_5 x M(2,GF(2)) x GF(2)", "relabel_seed": self.seed}

    def run_pass(self) -> PassResult:
        from frobring import characters, partitions, rings, weights

        result = PassResult()
        facts: dict = {}
        start, cpu_start = perf_counter(), process_time()
        try:
            ring = rings.build_table_ring(rings.load_table_spec(str(self.path)))
            result.build_s = perf_counter() - start
            facts.update(_structure_facts(ring.describe()))
            char = characters.canonical_generating_character(ring)
            facts["character_order"] = char.order
            table = weights.weight_table(ring, char)
            result.weights_ready_s.append(perf_counter() - start)
            facts["weight_multiset"] = _multiset(table)
            hom = partitions.hom_partition(ring, char)
            facts["hom_blocks"] = hom.num_blocks
            facts["hom_block_sizes"] = sorted(hom.block_sizes())
            facts.update(_dual_facts(hom, char))
        except Exception:  # a failed stage is a failed answer, not a crash
            _record_error(result, self.name)
        result.wall_s = perf_counter() - start
        result.cpu_s = process_time() - cpu_start
        result.latencies_s.append(result.wall_s)
        result.answer(facts)
        return result


# Commutative chain-ring products of large characteristic.  The unit
# counts bound the seeded ``--char index:<k>`` choice.
CHAIN_RINGS = {
    "Z8 x Z9 x GF(5)": 96,
    "Z9 x Z25": 120,
    "Z27 x GF(7)": 108,
    "GF(3) x GF(9) x Z25": 320,
    "Z125": 100,
}
CHAIN_COMMANDS = (("weights",), ("dual", "--side", "both"), ("krawtchouk", "--side", "both"))


def _cli_facts(command: str, payload: dict) -> dict:
    if command == "weights":
        return {"weight_multiset": payload["multiset"]}
    if command == "dual":
        return {
            "primal_blocks": payload["primal_num_blocks"],
            "left_dual_block_sizes": sorted(payload["left"]["block_sizes"]),
            "right_dual_block_sizes": sorted(payload["right"]["block_sizes"]),
            "left_equals_right": payload["left_equals_right"],
            "self_dual": payload["self_dual"],
            "reflexive": payload["reflexive"],
        }
    blocks = payload["left"]["partition"]["blocks"]
    return {
        "character_order": payload["left"]["order"],
        "block_sizes": sorted(len(b) for b in blocks),
        "left_equals_right": payload["left_equals_right"],
    }


class ChainQueries:
    """A fixed multiset of CLI calls in seeded order, each building its ring.

    A pass makes two rounds; each round calls every (ring, command) pair
    once, in its own seeded order and with its own seeded character.  So
    the median call has a twin of the same kind, about half a pass away.
    """

    name = "chain_queries"

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.calls = []
        for _ in range(2):
            round_ = [(expr, command, rng.randrange(units))
                      for expr, units in CHAIN_RINGS.items()
                      for command in CHAIN_COMMANDS]
            rng.shuffle(round_)
            self.calls += round_

    def inputs(self) -> dict:
        return {"calls": [{"ring": e, "command": " ".join(c), "char": f"index:{k}"}
                          for e, c, k in self.calls]}

    def run_pass(self) -> PassResult:
        from frobring import cli

        result = PassResult()
        # set-up as a CLI process pays it: parse and build each call's ring
        start = perf_counter()
        for expr, _, _ in self.calls:
            cli.build_ring(cli.parse_ring(expr))
        result.build_s = perf_counter() - start

        wall = cpu = weights_ready = 0.0
        for expr, command, k in self.calls:
            argv = [*command, "--ring", expr, "--char", f"index:{k}",
                    "--json", "--no-timestamp"]
            out = io.StringIO()
            gc.collect()  # start each call as clean as a fresh CLI process
            call_start, cpu_start = perf_counter(), process_time()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception:  # a crashed call is a failed answer
                _record_error(result, " ".join(argv))
                continue
            latency = perf_counter() - call_start
            cpu += process_time() - cpu_start
            wall += latency
            result.latencies_s.append(latency)
            if command[0] == "weights":
                weights_ready += latency
            if code != 0:
                result.errors.append(f"{' '.join(argv)}: exit code {code}")
                continue
            try:
                facts = _cli_facts(command[0], json.loads(out.getvalue()))
            except (KeyError, TypeError, ValueError):
                _record_error(result, " ".join(argv))
                continue
            result.answer(facts, f"{expr} | {command[0]} | ")
        result.wall_s, result.cpu_s = wall, cpu
        result.weights_ready_s.append(weights_ready)
        return result


WORKLOADS = {w.name: w for w in (Square6561, Table512, ChainQueries)}
