"""Independent reference model used to pin the expected output of every op.

Nothing here imports ``xmod``: words, presentations, movie replay, crossed
module tables, the axiom check and the homomorphism count are re-derived
from the documented formats, so a defect in an ``xmod`` engine cannot also
produce the value it is checked against.

Plain data shapes:

* a word is a freely reduced tuple of ``(generator, sign)`` letters;
* a presentation is a ``Pres`` (generators, cells, boundary words, and
  relations as lists of ``(conjugator word, cell, sign)`` terms);
* a crossed module is a ``Module`` of four tables, elements as indices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product


# ---------------------------------------------------------------- words


def reduce_word(letters) -> tuple:
    out: list = []
    for gen, sign in letters:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def invert_word(word) -> tuple:
    return tuple((gen, -sign) for gen, sign in reversed(word))


def parse_word(text: str) -> tuple:
    letters = []
    for token in text.split():
        if token == "1":
            continue
        name, caret, exp = token.partition("^")
        power = int(exp) if caret else 1
        letters.extend([(name, 1 if power > 0 else -1)] * abs(power))
    return reduce_word(letters)


def format_word(word) -> str:
    if not word:
        return "1"
    return " ".join(gen if sign > 0 else f"{gen}^-1" for gen, sign in word)


# -------------------------------------------------------- presentations


@dataclass
class Pres:
    generators: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    boundary: dict = field(default_factory=dict)
    relations: list = field(default_factory=list)


def format_pres(pres: Pres) -> str:
    """``pres v1`` text in the canonical form ``xmod compile`` prints."""
    out = ["pres v1", ("gens " + " ".join(pres.generators)).rstrip(),
           ("cells " + " ".join(pres.cells)).rstrip()]
    out += [f"bnd {c} = {format_word(pres.boundary[c])}" for c in pres.cells]
    for relation in pres.relations:
        body = " ".join(f"({format_word(w)} ; {c} ; {'+' if s > 0 else '-'})"
                        for w, c, s in relation)
        out.append(f"rel ={' ' + body if body else ''}")
    return "\n".join(out) + "\n"


def replay(text: str) -> tuple[Pres, int]:
    """Replay a movie that uses only birth, cross, saddle, death and end.

    Band labels never change under these events, so a band stays the single
    term (1 ; cell ; +) and a spanner term (band, w, s) contributes
    (w ; cell ; s).  Returns the presentation and the number of births.
    """
    pres = Pres()
    arcs: dict = {}
    bands: dict = {}

    def read(ref: str):
        name, _, exp = ref.partition("^")
        return arcs[name] if not exp else invert_word(arcs[name])

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split(maxsplit=1)
        if keyword == "end":
            break
        if keyword == "birth":
            arcs[rest[0]] = ((rest[0], 1),)
            pres.generators.append(rest[0])
            continue
        if keyword == "death":
            circle, spanner = rest[0].split(" ", 1)
            for arc in circle.removeprefix("circle=").split(","):
                del arcs[arc]
            body = spanner.strip().removeprefix("spanner=[").removesuffix("]")
            terms = []
            for chunk in filter(None, (c.strip() for c in body.split(";"))):
                band, word, sign = chunk[1:-1].split(",")
                terms.append((parse_word(word), bands[band.strip()],
                              1 if sign.strip() in ("+", "+1") else -1))
            if terms:
                pres.relations.append(terms)
            continue
        tokens = rest[0].split()
        sign = tokens.pop(0) if keyword == "cross" else ""
        args = dict(token.split("=", 1) for token in tokens)
        if keyword == "cross":
            over, into = arcs[args["over"]], arcs[args["in"]]
            if sign in ("+", "+1"):
                label = invert_word(over) + into + over
            else:
                label = over + into + invert_word(over)
            arcs[args["out"]] = reduce_word(label)
        elif keyword == "saddle":
            wu, wv = read(args["u"]), read(args["v"])
            u, v = args["u"].partition("^")[0], args["v"].partition("^")[0]
            inherited = (arcs[u], arcs[v])
            del arcs[u]
            arcs.pop(v, None)
            for arc, label in zip(args["merged"].split(","), inherited):
                arcs[arc] = label
            cell = args["cell"]
            bands[args["band"]] = cell
            pres.cells.append(cell)
            pres.boundary[cell] = reduce_word(wu + invert_word(wv))
        else:
            raise ValueError(f"reference replay does not model {keyword!r}")
    return pres, len(pres.generators)


# ------------------------------------------------------- crossed modules


@dataclass(frozen=True)
class Module:
    base: tuple        # base product table, rows of indices
    fiber: tuple       # fiber product table
    boundary: tuple    # fiber -> base
    action: tuple      # one row per base element, fiber -> fiber


def identity_of(table) -> int | None:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def inverses_of(table) -> list:
    e = identity_of(table)
    return [next(b for b in range(len(table)) if table[a][b] == e) for a in range(len(table))]


def module_text(m: Module) -> str:
    """``xmod v1`` text of a module."""
    out = ["xmod v1", f"base {len(m.base)}"]
    out += [" ".join(map(str, row)) for row in m.base]
    out.append(f"fiber {len(m.fiber)}")
    out += [" ".join(map(str, row)) for row in m.fiber]
    out += ["boundary", " ".join(map(str, m.boundary)), "action"]
    out += [" ".join(map(str, row)) for row in m.action]
    return "\n".join(out) + "\n"


def _group_lines(table, prefix: str) -> list:
    n = len(table)
    out = [f"{prefix}associativity {a} {b} {c}"
           for a in range(n) for b in range(n) for c in range(n)
           if table[table[a][b]][c] != table[a][table[b][c]]]
    e = identity_of(table)
    if e is None:
        return out + [f"{prefix}identity"]
    out += [f"{prefix}inverse {a}" for a in range(n)
            if not any(table[a][b] == e and table[b][a] == e for b in range(n))]
    return out


def violation_lines(m: Module) -> list:
    """Every axiom violation, as the ``validate`` command words it, in its order.

    The order is the documented one: group axioms of base then fiber (and
    nothing else when either fails), then boundary morphism, action
    identity, composition and morphism, equivariance, conjugation.
    """
    out = _group_lines(m.base, "base.") + _group_lines(m.fiber, "fiber.")
    if out:
        return [f"violation {line}" for line in out]
    G, E, bdy, act = m.base, m.fiber, m.boundary, m.action
    nG, nE = len(G), len(E)
    eG, invG, invE = identity_of(G), inverses_of(G), inverses_of(E)
    out += [f"boundary.morphism {e} {f}" for e in range(nE) for f in range(nE)
            if bdy[E[e][f]] != G[bdy[e]][bdy[f]]]
    out += [f"action.identity {e}" for e in range(nE) if act[eG][e] != e]
    out += [f"action.composition {g} {h} {e}" for g in range(nG) for h in range(nG)
            for e in range(nE) if act[G[g][h]][e] != act[g][act[h][e]]]
    out += [f"action.morphism {g} {e} {f}" for g in range(nG) for e in range(nE)
            for f in range(nE) if act[g][E[e][f]] != E[act[g][e]][act[g][f]]]
    out += [f"equivariance {g} {e}" for g in range(nG) for e in range(nE)
            if bdy[act[g][e]] != G[g][G[bdy[e]][invG[g]]]]
    out += [f"conjugation {e} {f}" for e in range(nE) for f in range(nE)
            if act[bdy[e]][f] != E[e][E[f][invE[e]]]]
    return [f"violation {line}" for line in out]


# Cell assignments per phi the nonabelian enumeration may try.
LIMIT = 2_000_000


def count_homs(pres: Pres, m: Module) -> int:
    """Number of crossed-module homomorphisms from ``pres`` into ``m``.

    For each base assignment phi, every cell ranges over the boundary fiber
    above phi(boundary word).  With an abelian fiber the relation values are
    carried as a tuple through the cells in order and equal tuples are
    merged, a relation being required to vanish after its last cell; with a
    nonabelian fiber every cell assignment is tried (at most ``LIMIT`` per
    phi).  No search order or pruning of the xmod engines is reused.
    """
    G, E = m.base, m.fiber
    eG, eE = identity_of(G), identity_of(E)
    invG, invE = inverses_of(G), inverses_of(E)
    above = [[e for e in range(len(E)) if m.boundary[e] == g] for g in range(len(G))]
    abelian = all(E[a][b] == E[b][a] for a in range(len(E)) for b in range(len(E)))
    gen_index = {g: i for i, g in enumerate(pres.generators)}
    cell_index = {c: i for i, c in enumerate(pres.cells)}

    def evaluate(word, phi) -> int:
        out = eG
        for gen, sign in word:
            value = phi[gen_index[gen]]
            out = G[out][value if sign > 0 else invG[value]]
        return out

    last = [max((cell_index[c] for _, c, _ in rel), default=-1) for rel in pres.relations]
    total = 0
    for phi in product(range(len(G)), repeat=len(pres.generators)):
        candidates = [above[evaluate(pres.boundary[c], phi)] for c in pres.cells]
        if not all(candidates):
            continue
        # terms[i]: (relation, action row, sign) for every occurrence of cell i
        terms: list = [[] for _ in pres.cells]
        for r, rel in enumerate(pres.relations):
            for word, cell, sign in rel:
                terms[cell_index[cell]].append((r, m.action[evaluate(word, phi)], sign))
        if abelian:
            states = {(eE,) * len(pres.relations): 1}
            for i, block in enumerate(candidates):
                closing = [r for r in range(len(last)) if last[r] == i]
                nxt: dict = {}
                for state, ways in states.items():
                    for e in block:
                        values = list(state)
                        for r, row, sign in terms[i]:
                            moved = row[e]
                            values[r] = E[values[r]][moved if sign > 0 else invE[moved]]
                        if all(values[r] == eE for r in closing):
                            key = tuple(values)
                            nxt[key] = nxt.get(key, 0) + ways
                states = nxt
            total += sum(states.values())
            continue
        size = 1
        for block in candidates:
            size *= len(block)
        if size > LIMIT:
            raise ValueError(f"reference count needs {size} assignments per phi")
        rows = [[(m.action[evaluate(w, phi)], cell_index[c], s) for w, c, s in rel]
                for rel in pres.relations]
        for psi in product(*candidates):
            ok = True
            for rel in rows:
                acc = eE
                for row, i, sign in rel:
                    moved = row[psi[i]]
                    acc = E[acc][moved if sign > 0 else invE[moved]]
                if acc != eE:
                    ok = False
                    break
            total += ok
    return total


def invariant(count: int, m: Module, one_handles: int) -> Fraction:
    return Fraction(count, len(m.fiber) ** one_handles)


# ----------------------------------------------------------- group tables


def cyclic(n: int) -> tuple:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def direct_product(a, b) -> tuple:
    """Table of a x b; element (i, j) has index i * |b| + j."""
    nb = len(b)
    return tuple(
        tuple(a[x // nb][y // nb] * nb + b[x % nb][y % nb]
              for y in range(len(a) * nb))
        for x in range(len(a) * nb)
    )


def symmetric3() -> tuple[tuple, list]:
    """S3 table and the parity (0 even, 1 odd) of each element."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                  for p in perms)
    parity = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
              for p in perms]
    return table, parity


def inversion_module(base: tuple, parity: list, fiber: tuple) -> Module:
    """Abelian fiber with odd base elements acting by inversion, trivial boundary.

    The boundary must land in the kernel of the action, which inversion
    forces to be the base identity when the fiber has elements of order > 2.
    """
    inv = inverses_of(fiber)
    identity = list(range(len(fiber)))
    action = tuple(tuple(inv) if odd else tuple(identity) for odd in parity)
    return Module(base, fiber, (identity_of(base),) * len(fiber), action)


def quaternion_over_klein() -> Module:
    """Q8 -> Q8/{+1,-1} = V4, with V4 acting on Q8 by conjugation through lifts.

    Q8 element 2u + s is (-1)^s times unit u in (1, i, j, k); V4 element u.
    """
    # unit products: (sign, unit) of u * v for units 1, i, j, k
    unit = {(0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
            (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
            (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
            (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0)}

    def mul(x: int, y: int) -> int:
        sign, u = unit[(x // 2, y // 2)]
        return 2 * u + (sign + x % 2 + y % 2) % 2

    q8 = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))
    inv = inverses_of(q8)
    v4 = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    action = tuple(tuple(mul(mul(2 * g, e), inv[2 * g]) for e in range(8))
                   for g in range(4))
    return Module(v4, q8, tuple(e // 2 for e in range(8)), action)
