"""Process terms: construction, binding analysis, substitution and unfolding.

Terms are immutable, hash-consed trees: structurally equal terms are the same
object.  The constructors are deadlock (``Nil``), the unimplementable process
(``Bottom``), action prefix, external choice, conjunction, disjunction,
CSP-style synchronised parallel composition, variables, and recursion over a
finite equation system (``Rec`` / ``RecSpec``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

# Unfolding chains can produce structurally deep states; the traversals here
# are recursive, so give the interpreter room for legitimately deep terms.
if sys.getrecursionlimit() < 15_000:
    sys.setrecursionlimit(15_000)

TAU = "tau"


def is_visible(action: str) -> bool:
    """True for observable actions, False for the internal action."""
    return action != TAU


class UnboundRecVar(ValueError):
    """A recursion operator names a variable its equation system does not bind."""

    def __init__(self, var: str):
        super().__init__(f"recursion variable {var!r} is not bound by its equations")
        self.var = var


class GuardednessError(ValueError):
    """A bound recursion variable occurs unguarded in an equation body."""

    def __init__(self, var: str, equation: str):
        super().__init__(
            f"variable {var!r} occurs unguarded in the equation for {equation!r}"
        )
        self.var = var
        self.equation = equation


_INTERN: dict = {}


class Term:
    """Base class for process terms.

    Terms are hash-consed: construction returns the unique instance for each
    structure, so equality is identity and hashing is O(1).  Instances are
    immutable by convention.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{self.__class__.__name__}({args})"

    def __str__(self) -> str:
        from .syntax import print_term

        return print_term(self)


def _interned(cls, key, build):
    inst = _INTERN.get(key)
    if inst is None:
        inst = object.__new__(cls)
        build(inst)
        inst._hash = hash(key)
        # setdefault is atomic: concurrent constructions agree on one instance
        inst = _INTERN.setdefault(key, inst)
    return inst


class Nil(Term):
    """Deadlock: no transitions, consistent."""

    __slots__ = ()

    def __new__(cls):
        return _interned(cls, ("Nil",), lambda inst: None)


class Bottom(Term):
    """The unimplementable process: no transitions, inconsistent."""

    __slots__ = ()

    def __new__(cls):
        return _interned(cls, ("Bottom",), lambda inst: None)


class Prefix(Term):
    __slots__ = ("action", "body")
    _fields = ("action", "body")
    __match_args__ = ("action", "body")

    def __new__(cls, action: str, body: Term):
        if not action:
            raise ValueError("action name must be nonempty")

        def build(inst):
            inst.action = action
            inst.body = body

        return _interned(cls, ("Prefix", action, body), build)


class _Binary(Term):
    __slots__ = ("left", "right")
    _fields = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        def build(inst):
            inst.left = left
            inst.right = right

        return _interned(cls, (cls.__name__, left, right), build)


class ExtChoice(_Binary):
    __slots__ = ()


class Conj(_Binary):
    __slots__ = ()


class Disj(_Binary):
    __slots__ = ()


class Parallel(Term):
    __slots__ = ("sync", "left", "right")
    _fields = ("sync", "left", "right")
    __match_args__ = ("sync", "left", "right")

    def __new__(cls, sync: Iterable[str], left: Term, right: Term):
        sync = frozenset(sync)
        if TAU in sync:
            raise ValueError("synchronisation sets contain visible actions only")

        def build(inst):
            inst.sync = sync
            inst.left = left
            inst.right = right

        return _interned(cls, ("Parallel", sync, left, right), build)


class Var(Term):
    __slots__ = ("name",)
    _fields = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        if not name:
            raise ValueError("variable name must be nonempty")

        def build(inst):
            inst.name = name

        return _interned(cls, ("Var", name), build)


class RecSpec:
    """A finite, nonempty map from recursion variables to their bodies.

    Equations are stored sorted by variable name, so two specifications with
    the same equations are the same object regardless of construction order.
    """

    __slots__ = ("equations", "names", "_hash")

    def __new__(cls, equations):
        items = tuple(sorted(dict(equations).items()))
        if not items:
            raise ValueError("recursive specification must be nonempty")

        def build(inst):
            inst.equations = items
            inst.names = frozenset(name for name, _ in items)

        return _interned(cls, ("RecSpec", items), build)

    def __hash__(self) -> int:
        return self._hash

    def body(self, name: str) -> Term:
        for n, t in self.equations:
            if n == name:
                return t
        raise KeyError(name)

    def __iter__(self) -> Iterator[tuple[str, Term]]:
        return iter(self.equations)

    def __len__(self) -> int:
        return len(self.equations)

    def __repr__(self) -> str:
        return f"RecSpec({dict(self.equations)!r})"


class Rec(Term):
    __slots__ = ("var", "spec")
    _fields = ("var", "spec")
    __match_args__ = ("var", "spec")

    def __new__(cls, var: str, spec):
        if not isinstance(spec, RecSpec):
            spec = RecSpec(spec)
        if var not in spec.names:
            raise UnboundRecVar(var)

        def build(inst):
            inst.var = var
            inst.spec = spec

        return _interned(cls, ("Rec", var, spec), build)


def operands(t: Term) -> tuple[Term, ...]:
    """Immediate subterms, not descending into recursion equation bodies."""
    match t:
        case Prefix(_, body):
            return (body,)
        case ExtChoice(l, r) | Conj(l, r) | Disj(l, r):
            return (l, r)
        case Parallel(_, l, r):
            return (l, r)
        case _:
            return ()


# ---------------------------------------------------------------------------
# binding analysis


def _subterm_parts(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Rec):
        return tuple(body for _, body in t.spec.equations)
    return operands(t)


def _memoized_bottom_up(t: Term, memo: dict, combine) -> object:
    """Post-order evaluation with an explicit stack; ``combine(t, parts)``
    folds the children's values.  Deep terms must not exhaust the stack."""
    cached = memo.get(t)
    if cached is not None:
        return cached
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if node in memo:
            continue
        parts = _subterm_parts(node)
        if expanded or not parts:
            memo[node] = combine(node, [memo[c] for c in parts])
        else:
            stack.append((node, True))
            for c in parts:
                if c not in memo:
                    stack.append((c, False))
    return memo[t]


_EMPTY: frozenset[str] = frozenset()
_free_vars_memo: dict[Term, frozenset[str]] = {}
_all_names_memo: dict[Term, frozenset[str]] = {}


def _trim_memos() -> None:
    for memo in (_free_vars_memo, _all_names_memo):
        if len(memo) > 1 << 20:
            memo.clear()


def free_vars(t: Term) -> frozenset[str]:
    """The set of variables with a free occurrence in ``t``."""

    def combine(node: Term, parts: list[frozenset[str]]) -> frozenset[str]:
        if isinstance(node, Var):
            return frozenset((node.name,))
        if isinstance(node, Rec):
            out = _EMPTY
            for p in parts:
                out |= p
            return out - node.spec.names
        out = _EMPTY
        for p in parts:
            out |= p
        return out

    _trim_memos()
    return _memoized_bottom_up(t, _free_vars_memo, combine)


def all_names(t: Term) -> frozenset[str]:
    """Every variable name occurring in ``t``, free or bound."""

    def combine(node: Term, parts: list[frozenset[str]]) -> frozenset[str]:
        out = frozenset((node.name,)) if isinstance(node, Var) else _EMPTY
        if isinstance(node, Rec):
            out |= node.spec.names
        for p in parts:
            out |= p
        return out

    _trim_memos()
    return _memoized_bottom_up(t, _all_names_memo, combine)


@dataclass(frozen=True)
class _Occurrence:
    strong: bool  # lies under a visible-action prefix
    weak: bool  # lies under an internal prefix or a disjunction operand
    unfolded: bool  # lies outside every recursion scope
    in_conj: bool  # lies under a conjunction operand


def _occurrences(t: Term, x: str) -> list[_Occurrence]:
    out: list[_Occurrence] = []

    def walk(t: Term, strong: bool, weak: bool, in_rec: bool, in_conj: bool) -> None:
        match t:
            case Var(name):
                if name == x:
                    out.append(_Occurrence(strong, weak, not in_rec, in_conj))
            case Prefix(a, body):
                vis = is_visible(a)
                walk(body, strong or vis, weak or not vis, in_rec, in_conj)
            case Disj(l, r):
                walk(l, strong, True, in_rec, in_conj)
                walk(r, strong, True, in_rec, in_conj)
            case Conj(l, r):
                walk(l, strong, weak, in_rec, True)
                walk(r, strong, weak, in_rec, True)
            case ExtChoice(l, r):
                walk(l, strong, weak, in_rec, in_conj)
                walk(r, strong, weak, in_rec, in_conj)
            case Parallel(_, l, r):
                walk(l, strong, weak, in_rec, in_conj)
                walk(r, strong, weak, in_rec, in_conj)
            case Rec(_, spec):
                if x in spec.names:
                    return  # occurrences inside belong to the inner binder
                for _, body in spec.equations:
                    walk(body, strong, weak, True, in_conj)
            case _:
                pass

    walk(t, False, False, False, False)
    return out


@dataclass(frozen=True)
class VarStatus:
    """Aggregate placement flags for a variable within a term.

    Universally quantified flags (the guard flags) are vacuously true when the
    variable does not occur; the existential ones are false.
    """

    free: bool
    unfolded: bool
    active: bool
    one_active: bool
    strongly_guarded: bool
    weakly_guarded: bool
    in_conjunction_scope: bool
    occurrence_count: int


def variable_status(t: Term, x: str) -> VarStatus:
    occs = _occurrences(t, x)
    if not occs:
        return VarStatus(False, False, False, False, True, True, False, 0)

    def active(o: _Occurrence) -> bool:
        return not o.strong and not o.weak and o.unfolded

    return VarStatus(
        free=True,
        unfolded=all(o.unfolded for o in occs),
        active=all(active(o) for o in occs),
        one_active=len(occs) == 1 and active(occs[0]),
        strongly_guarded=all(o.strong for o in occs),
        weakly_guarded=all(o.weak for o in occs),
        in_conjunction_scope=any(o.in_conj for o in occs),
        occurrence_count=len(occs),
    )


def first_guard_violation(spec: RecSpec) -> tuple[str, str] | None:
    """Return (variable, equation) for the first unguarded bound occurrence."""
    for eq_name, body in spec.equations:
        for var in sorted(spec.names):
            for occ in _occurrences(body, var):
                if not occ.strong and not occ.weak:
                    return (var, eq_name)
    return None


def is_guarded_spec(spec: RecSpec) -> bool:
    """True when every bound variable is guarded in every equation body."""
    return first_guard_violation(spec) is None


def unguarded_free_vars(t: Term) -> frozenset[str]:
    """Free variables having at least one unguarded occurrence in ``t``."""
    return frozenset(
        x
        for x in free_vars(t)
        if any(not o.strong and not o.weak for o in _occurrences(t, x))
    )


# ---------------------------------------------------------------------------
# measures


def degree(t: Term) -> int:
    """Structural size where recursions and leaves count 1."""
    match t:
        case Nil() | Bottom() | Var(_) | Rec(_, _):
            return 1
        case Prefix(_, body):
            return 1 + degree(body)
        case _:
            l, r = operands(t)
            return 1 + degree(l) + degree(r)


def unguarded_rec_count(t: Term) -> int:
    """Number of recursion operators not protected by a prefix or disjunction."""
    match t:
        case Rec(_, _):
            return 1
        case Nil() | Bottom() | Var(_) | Prefix(_, _) | Disj(_, _):
            return 0
        case _:
            l, r = operands(t)
            return unguarded_rec_count(l) + unguarded_rec_count(r)


@dataclass(frozen=True)
class StratRank:
    """Rank of a derivation literal.

    Transition literals rank as the pair (unguarded recursion count, degree)
    of their source term, compared lexicographically; inconsistency literals
    rank above every pair.
    """

    top: bool
    guard_count: int = 0
    size: int = 0

    def _key(self) -> tuple[int, int, int]:
        return (1, 0, 0) if self.top else (0, self.guard_count, self.size)

    def __lt__(self, other: "StratRank") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "StratRank") -> bool:
        return self._key() <= other._key()


def rank_transition(source: Term) -> StratRank:
    """Rank of any transition literal with the given source term."""
    return StratRank(False, unguarded_rec_count(source), degree(source))


def rank_inconsistent() -> StratRank:
    """Rank of an inconsistency literal: above all transition ranks."""
    return StratRank(True)


def folding_number(t: Term, x: str) -> int:
    """Total nesting depth of recursions around unguarded occurrences of ``x``."""
    match t:
        case Nil() | Bottom() | Var(_) | Disj(_, _) | Prefix(_, _):
            return 0
        case ExtChoice(l, r) | Conj(l, r):
            return folding_number(l, x) + folding_number(r, x)
        case Parallel(_, l, r):
            return folding_number(l, x) + folding_number(r, x)
        case Rec(_, spec):
            if x not in unguarded_free_vars(t):
                return 0
            return 1 + sum(folding_number(body, x) for _, body in spec.equations)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# substitution and unfolding


def _fresh_name(base: str, avoid: set[str]) -> str:
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    name = f"{base}{i}"
    avoid.add(name)
    return name


def _rename_spec(spec: RecSpec, renaming: Mapping[str, str]) -> RecSpec:
    """Rename bound variables of a specification throughout its own scope."""
    var_subst = {old: Var(new) for old, new in renaming.items()}
    return RecSpec(
        {
            renaming.get(name, name): substitute(body, var_subst)
            for name, body in spec.equations
        }
    )


def substitute(t: Term, bindings: Mapping[str, Term]) -> Term:
    """Simultaneously replace free occurrences of the bound names.

    Replacement respects recursion scopes: occurrences shadowed by an equal
    binder are left alone, and a binder that would capture a free variable of
    an inserted term is renamed first.
    """
    subst = dict(bindings)

    def go(t: Term, subst: dict[str, Term]) -> Term:
        if not (free_vars(t) & subst.keys()):
            return t
        match t:
            case Var(name):
                return subst[name]
            case Prefix(a, body):
                return Prefix(a, go(body, subst))
            case ExtChoice(l, r):
                return ExtChoice(go(l, subst), go(r, subst))
            case Conj(l, r):
                return Conj(go(l, subst), go(r, subst))
            case Disj(l, r):
                return Disj(go(l, subst), go(r, subst))
            case Parallel(sync, l, r):
                return Parallel(sync, go(l, subst), go(r, subst))
            case Rec(x, spec):
                live = {
                    k: v
                    for k, v in subst.items()
                    if k not in spec.names and k in free_vars(t)
                }
                if not live:
                    return t
                inserted: frozenset[str] = frozenset()
                for v in live.values():
                    inserted |= free_vars(v)
                captured = spec.names & inserted
                if captured:
                    avoid = set(all_names(t)) | set(inserted) | set(live)
                    renaming = {old: _fresh_name(old, avoid) for old in sorted(captured)}
                    spec = _rename_spec(spec, renaming)
                    x = renaming.get(x, x)
                return Rec(
                    x, RecSpec({n: go(body, live) for n, body in spec.equations})
                )
        raise TypeError(f"not a term: {t!r}")

    return go(t, subst) if subst else t


@lru_cache(maxsize=1 << 16)
def plug(t: Term, spec: RecSpec) -> Term:
    """Close ``t`` over an equation system: each free occurrence of a bound
    variable becomes the corresponding recursion operator."""
    return substitute(t, {x: Rec(x, spec) for x in sorted(spec.names)})


def unfold_rec(t: Rec) -> Term:
    """One-step expansion of a recursion: its body plugged with itself."""
    return plug(t.spec.body(t.var), t.spec)


def unfold_one(t: Term) -> list[Term]:
    """All terms obtained by expanding exactly one recursion subterm that is
    not inside another recursion scope."""

    def go(t: Term) -> list[Term]:
        match t:
            case Rec(_, _):
                return [unfold_rec(t)]
            case Prefix(a, body):
                return [Prefix(a, b) for b in go(body)]
            case ExtChoice(l, r):
                return [ExtChoice(l2, r) for l2 in go(l)] + [
                    ExtChoice(l, r2) for r2 in go(r)
                ]
            case Conj(l, r):
                return [Conj(l2, r) for l2 in go(l)] + [Conj(l, r2) for r2 in go(r)]
            case Disj(l, r):
                return [Disj(l2, r) for l2 in go(l)] + [Disj(l, r2) for r2 in go(r)]
            case Parallel(sync, l, r):
                return [Parallel(sync, l2, r) for l2 in go(l)] + [
                    Parallel(sync, l, r2) for r2 in go(r)
                ]
            case _:
                return []

    out: list[Term] = []
    for s in go(t):
        if s not in out:
            out.append(s)
    return out


def is_multi_unfolding(
    t: Term, s: Term, max_steps: int = 8, max_frontier: int = 2000
) -> bool:
    """Bounded search for a chain of single-step unfoldings from ``t`` to ``s``."""
    frontier = [t]
    seen = {t}
    for _ in range(max_steps):
        if s in seen:
            return True
        nxt = []
        for u in frontier:
            for v in unfold_one(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    if len(seen) > max_frontier:
                        return s in seen
        if not nxt:
            break
        frontier = nxt
    return s in seen


# ---------------------------------------------------------------------------
# normalisation


def normalize(t: Term) -> Term:
    """Rename recursion variables so that binders never clash with free names,
    with enclosing binders, or with a differently-defined specification seen
    earlier.  Renaming is deterministic in the structure of the input."""
    free = free_vars(t)
    used = set(all_names(t))

    def walk(t: Term, ren: dict[str, str], enclosing: frozenset[str]) -> Term:
        match t:
            case Var(name):
                return Var(ren[name]) if name in ren else t
            case Nil() | Bottom():
                return t
            case Prefix(a, body):
                return Prefix(a, walk(body, ren, enclosing))
            case ExtChoice(l, r):
                return ExtChoice(walk(l, ren, enclosing), walk(r, ren, enclosing))
            case Conj(l, r):
                return Conj(walk(l, ren, enclosing), walk(r, ren, enclosing))
            case Disj(l, r):
                return Disj(walk(l, ren, enclosing), walk(r, ren, enclosing))
            case Parallel(sync, l, r):
                return Parallel(
                    sync, walk(l, ren, enclosing), walk(r, ren, enclosing)
                )
            case Rec(x, spec):
                mapping = {
                    v: _fresh_name(v, used)
                    for v in sorted(spec.names)
                    if v in free or v in enclosing
                }
                inner_ren = {k: v for k, v in ren.items() if k not in spec.names}
                inner_ren.update(mapping)
                bound = frozenset(mapping.get(v, v) for v in spec.names)
                eqs = {
                    mapping.get(n, n): walk(body, inner_ren, enclosing | bound)
                    for n, body in spec.equations
                }
                return Rec(mapping.get(x, x), RecSpec(eqs))
        raise TypeError(f"not a term: {t!r}")

    t = walk(t, {}, frozenset())

    # Second pass: distinct specifications never share a bound name.
    claims: dict[str, RecSpec] = {}

    def walk2(t: Term) -> Term:
        match t:
            case Rec(x, spec):
                renaming = {}
                for v in sorted(spec.names):
                    claimed = claims.get(v)
                    if claimed is None:
                        claims[v] = spec
                    elif claimed != spec:
                        renaming[v] = _fresh_name(v, used)
                if renaming:
                    spec = _rename_spec(spec, renaming)
                    x = renaming.get(x, x)
                    for v in renaming.values():
                        claims[v] = spec
                return Rec(
                    x, RecSpec({n: walk2(body) for n, body in spec.equations})
                )
            case Prefix(a, body):
                return Prefix(a, walk2(body))
            case ExtChoice(l, r):
                return ExtChoice(walk2(l), walk2(r))
            case Conj(l, r):
                return Conj(walk2(l), walk2(r))
            case Disj(l, r):
                return Disj(walk2(l), walk2(r))
            case Parallel(sync, l, r):
                return Parallel(sync, walk2(l), walk2(r))
            case _:
                return t

    return walk2(t)


def rec_specs(t: Term) -> list[tuple[Rec, RecSpec]]:
    """All recursion operators in ``t`` (including nested ones), pre-order."""
    out: list[tuple[Rec, RecSpec]] = []

    def walk(t: Term) -> None:
        match t:
            case Rec(_, spec):
                out.append((t, spec))
                for _, body in spec.equations:
                    walk(body)
            case _:
                for c in operands(t):
                    walk(c)

    walk(t)
    return out
