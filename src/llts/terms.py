"""Process terms: construction, binding analysis, substitution and unfolding.

Terms are immutable, hash-consed trees: structurally equal terms are the same
object.  The constructors are deadlock (``Nil``), the unimplementable process
(``Bottom``), action prefix, external choice, conjunction, disjunction,
CSP-style synchronised parallel composition, variables, and recursion over a
finite equation system (``Rec`` / ``RecSpec``).

A term is built from operands that exist before it, so terms form no
reference cycles.  ``syntax.parse`` and ``semantics.build_combined`` make none
either (``tests/test_semantics.py::test_no_cyclic_garbage`` pins that), so
they run under ``collector_paused``, with CPython's cyclic collector off: its
passes there would scan the growing intern table and find nothing.  The
collections are deferred to the return, none is skipped.  Each call decides
alone: one that finds the collector on turns it off and on again in a
``finally``, and one that finds it off leaves it off.  The switch is
process-global, so when paused calls overlap in two threads, the one that
found it on turns it on again as it ends, though the other may still run.
That costs the other call time, never a collection.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def collector_paused(fn):
    """Decorate ``fn`` to run with the cyclic collector disabled.

    Collections are deferred, not skipped: the allocations made meanwhile
    still count, so the first allocation after the pause runs the collection
    they are due.  A call that finds the collector enabled disables it, and
    enables it again in a ``finally``.  A call that finds it disabled, by its
    caller, by an enclosing paused call or by another thread, leaves the
    switch alone.  So no call leaves the collector off that was on when it
    began, and a caller who turned it off keeps it off.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class _Facts(NamedTuple):
    """What the recursion theory reads of a term's names and binders, and
    the term's inconsistency flag where its syntax decides it.

    ``flag`` is F(t), the least fixpoint of the inconsistency rules, for a
    closed term with no binder and no conjunction below it, and None for
    every other term.  Below such a term every rule is one of ``NEEDS``,
    which reads only the operands' flags, and operands are strict subterms,
    so F(t) is a fold over the syntax.  A closed term without a binder has
    one of the three ``_CLOSED`` objects, the one its flag picks: None
    there means a conjunction is below.  A closed term with a binder has
    ``_BOUND``."""

    free: frozenset[str]  # the variables with a free occurrence
    unguarded: frozenset[str]  # those with one under no prefix and in no disjunction
    binder: bool  # a binder occurs: a recursion, or an equation system
    flag: bool | None  # F(t) when the syntax decides it, else None


_EMPTY: frozenset[str] = frozenset()
# every closed term without a binder, by its flag
_CLOSED = {flag: _Facts(_EMPTY, _EMPTY, False, flag) for flag in (False, True, None)}
_BOUND = _Facts(_EMPTY, _EMPTY, True, None)  # every closed term with one


class _Interned:
    """Hash-consed values: construction returns the one instance with the
    given fields, so equality is identity and so is the hash.

    A class lists its fields once, in ``__slots__``.  A class with fields
    has its own ``__new__``: it probes ``_INTERN`` once with the key
    ``(cls, *fields)`` (an equation system's names follow from its
    equations and are left out) and, on a miss, checks its arguments,
    stores the fields and its ``_Facts`` and interns the new instance with
    ``setdefault``, which is atomic, so concurrent constructions agree on one
    instance.  An instance whose check fails is not interned.  The facts are
    an operand's own object wherever they equal it, and ``_facts_of``
    computes them otherwise.  This ``__new__`` builds the classes without
    fields, the leaves ``0`` and ``bot``, whose flags ``NEEDS`` gives.
    """

    __slots__ = ("_facts",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = cls._fields + cls.__dict__["__slots__"]

    def __new__(cls):
        key = (cls,)
        t = _INTERN.get(key)
        if t is None:
            t = object.__new__(cls)
            t._facts = _CLOSED[_flag(cls, ())]
            t = _INTERN.setdefault(key, t)
        return t


class Term(_Interned):
    """Base class for process terms.

    Terms are hash-consed: construction returns the unique instance for each
    structure, so equality is identity and hashing is O(1).  Instances are
    immutable by convention.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return _join(_walk(self, None, _into_subterms, _repr_of))

    def __str__(self) -> str:
        from .syntax import print_term

        return print_term(self)


class Nil(Term):
    """Deadlock: no transitions, consistent."""

    __slots__ = ()


class Bottom(Term):
    """The unimplementable process: no transitions, inconsistent."""

    __slots__ = ()


class Prefix(Term):
    __slots__ = ("action", "body")

    def __new__(cls, action: str, body: Term):
        key = (cls, action, body)
        t = _INTERN.get(key)
        if t is None:
            if not action:
                raise ValueError("action name must be nonempty")
            t = object.__new__(cls)
            t.action, t.body = action, body
            # a prefix guards its body's names and keeps all else, its
            # flag too: ``NEEDS`` reads its one operand's
            facts = body._facts
            t._facts = _facts_of(t) if facts.unguarded else facts
            t = _INTERN.setdefault(key, t)
        return t


class _Binary(Term):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        key = (cls, left, right)
        t = _INTERN.get(key)
        if t is None:
            t = object.__new__(cls)
            t.left, t.right = left, right
            t._facts = _composed(t, left._facts, right._facts)
            t = _INTERN.setdefault(key, t)
        return t


class ExtChoice(_Binary):
    __slots__ = ()


class Conj(_Binary):
    __slots__ = ()


class Disj(_Binary):
    __slots__ = ()


class Parallel(Term):
    __slots__ = ("sync", "left", "right")

    def __new__(cls, sync: Iterable[str], left: Term, right: Term):
        sync = frozenset(sync)
        key = (cls, sync, left, right)
        t = _INTERN.get(key)
        if t is None:
            if TAU in sync:
                raise ValueError("synchronisation sets contain visible actions only")
            t = object.__new__(cls)
            t.sync, t.left, t.right = sync, left, right
            t._facts = _composed(t, left._facts, right._facts)
            t = _INTERN.setdefault(key, t)
        return t


class Var(Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        t = _INTERN.get(key)
        if t is None:
            if not name:
                raise ValueError("variable name must be nonempty")
            t = object.__new__(cls)
            t.name = name
            free = frozenset((name,))
            t._facts = _Facts(free, free, False, None)
            t = _INTERN.setdefault(key, t)
        return t


class RecSpec(_Interned):
    """A finite, nonempty map from recursion variables to their bodies.

    Equations are stored sorted by variable name, so two specifications with
    the same equations are the same object regardless of construction order.
    """

    __slots__ = ("equations", "names", "guard_violation")

    def __new__(cls, equations):
        items = tuple(sorted(dict(equations).items()))
        key = (cls, items)  # the names follow from the equations
        t = _INTERN.get(key)
        if t is None:
            if not items:
                raise ValueError("recursive specification must be nonempty")
            t = object.__new__(cls)
            t.equations, t.names = items, frozenset(name for name, _ in items)
            t._facts = _facts_of(t)
            t.guard_violation = first_guard_violation(t)
            t = _INTERN.setdefault(key, t)
        return t

    def body(self, name: str) -> Term:
        # (name,) sorts just before (name, body), so no two bodies are compared
        i = bisect_left(self.equations, (name,))
        if i < len(self.equations) and self.equations[i][0] == name:
            return self.equations[i][1]
        raise KeyError(name)

    def __repr__(self) -> str:
        return f"RecSpec({dict(self.equations)!r})"


class Rec(Term):
    __slots__ = ("var", "spec")

    def __new__(cls, var: str, spec):
        if not isinstance(spec, RecSpec):
            spec = RecSpec(spec)
        key = (cls, var, spec)
        t = _INTERN.get(key)
        if t is None:
            if var not in spec.names:
                raise UnboundRecVar(var)
            t = object.__new__(cls)
            t.var, t.spec = var, spec
            t._facts = spec._facts  # a recursion names what its system does
            t = _INTERN.setdefault(key, t)
        return t


# The inconsistency rules that read the operands' flags alone, one entry per
# operator: a term is inconsistent once ``all`` its operands are, or once
# ``any`` one is.  So ``bot``, with no operand, is inconsistent, and ``0`` is
# not.  Conjunction and recursion also read moves and have no entry.
# ``semantics.RULES`` builds its structural clauses from this table.
NEEDS = {Nil: any, Bottom: all, Prefix: all, Disj: all, ExtChoice: any, Parallel: any}


def _flag(cls: type, flags) -> bool | None:
    """The flag of a ``cls`` whose operands have the flags ``flags``: their
    fold by ``NEEDS``, or None when ``cls`` has no entry or a flag is None."""
    needs = NEEDS.get(cls)
    if needs is None or None in flags:
        return None
    return needs(flags)


def _closed(facts: _Facts) -> bool:
    """Whether ``facts`` are those of a closed term without a binder."""
    return _CLOSED[facts.flag] is facts


def _composed(t: Term, left: _Facts, right: _Facts) -> _Facts:
    """The facts of ``t``, a composition whose operands have the facts
    ``left`` and ``right``.  Over two closed operands without a binder they
    are the ``_CLOSED`` object of ``t``'s flag.  Otherwise they are one
    operand's own object when the other is closed without a binder, or both
    are the same, and else ``_facts_of(t)``.  A disjunction guards its
    operands, so it shares none with an unguarded name."""
    if _closed(right):
        if _closed(left):
            return _CLOSED[_flag(type(t), (left.flag, right.flag))]
        shared = left
    elif right is left or _closed(left):
        shared = right
    else:
        return _facts_of(t)
    return _facts_of(t) if shared.unguarded and type(t) is Disj else shared


def _facts_of(t: _Interned) -> _Facts:
    """The facts of ``t``, an operator or an equation system, read off those
    of its parts: the operands, or the system's bodies less the names it
    binds.  Every facts object without a free name is one of ``_CLOSED``
    (no binder) or ``_BOUND`` (a binder), which ``_named`` relies on.  A
    constructor that can tell its facts equal an operand's shares that
    object and does not call this."""
    cls = type(t)
    if cls is RecSpec:
        parts, bound = [body for _, body in t.equations], t.names
    else:
        parts, bound = operands(t), _EMPTY
    binder, free, unguarded = bool(bound), _EMPTY, _EMPTY
    for part in parts:
        p = part._facts
        if not _closed(p):
            binder, free, unguarded = binder or p.binder, free | p.free, unguarded | p.unguarded
    if not free:
        return _BOUND if binder else _CLOSED[_flag(cls, [part._facts.flag for part in parts])]
    free -= bound
    if not free:
        return _BOUND
    # no occurrence under a prefix or in a disjunction is unguarded
    if cls is Prefix or cls is Disj:
        return _Facts(free, _EMPTY, binder, None)
    return _Facts(free, (unguarded - bound) or _EMPTY, binder, None)


def _body(t: Prefix) -> tuple[Term]:
    return (t.body,)


_sides = attrgetter("left", "right")
# The operands of each operator that has some.
_OPERANDS = {Prefix: _body, ExtChoice: _sides, Conj: _sides, Disj: _sides, Parallel: _sides}


def operands(t: Term) -> tuple[Term, ...]:
    """Immediate subterms, not descending into recursion equation bodies."""
    get = _OPERANDS.get(type(t))
    return () if get is None else get(t)


def subterms(t: Term) -> tuple[Term, ...]:
    """Immediate subterms: the operands, or a recursion's equation bodies in
    equation order."""
    if isinstance(t, Rec):
        return tuple(body for _, body in t.spec.equations)
    return operands(t)


def rebuild(t: Term, parts: Sequence[Term]) -> Term:
    """``t``'s operator over ``parts`` in place of its own subterms.

    ``parts`` stands for ``operands(t)``, or for a recursion's equation
    bodies in equation order; a leaf, or a recursion, given no parts is
    ``t`` itself.  This is the one place that puts an operator back
    together, so ``rebuild(t, subterms(t)) is t``.
    """
    if not parts:
        return t
    cls = type(t)
    if cls is Prefix:
        return Prefix(t.action, *parts)
    if cls is Parallel:
        return Parallel(t.sync, *parts)
    if cls is Rec:
        return Rec(t.var, RecSpec(zip([n for n, _ in t.spec.equations], parts)))
    return cls(*parts)


def _walk(t: Term, ctx, enter, leave=rebuild):
    """Depth-first walk of ``t`` with an explicit stack, so the depth of the
    input is no limit.

    ``enter(node, ctx)`` runs in pre-order and returns ``(head, children,
    child_ctx)``.  With ``children`` None the walk stops at ``node`` and
    ``head`` is its value.  Otherwise the ``children`` are walked in order
    under ``child_ctx``, each to the end before the next is entered, and
    ``leave(head, values)`` combines their values into ``node``'s.
    """
    head, children, ctx = enter(t, ctx)
    if children is None:
        return head
    todo, values = iter(children), []
    stack = []  # the frames of the nodes above the current one
    while True:
        for child in todo:
            value, children, child_ctx = enter(child, ctx)
            if children is None:
                values.append(value)
            elif not children:
                values.append(leave(value, []))
            else:
                stack.append((head, todo, values, ctx))
                head, todo, values, ctx = value, iter(children), [], child_ctx
                break
        else:
            value = leave(head, values)
            if not stack:
                return value
            head, todo, values, ctx = stack.pop()
            values.append(value)


def _into_subterms(t: Term, _):
    return t, subterms(t), None


def _join(pieces: list) -> str:
    """The strings in a tree of nested lists, in order, joined once.  A
    ``leave`` that returns such a tree, with its children's trees inside,
    copies no text from one level into the next."""
    out: list[str] = []
    stack = [iter(pieces)]
    while stack:
        for piece in stack[-1]:
            if isinstance(piece, str):
                out.append(piece)
            else:
                stack.append(iter(piece))
                break
        else:
            stack.pop()
    return "".join(out)


def _commas(items: list) -> list:
    """The pieces of ``", ".join(items)`` as a tree for ``_join``."""
    out = items[:1]
    for item in items[1:]:
        out += (", ", item)
    return out


def _repr_of(t: Term, parts: list[list]) -> list:
    """``leave`` of ``repr``: ``t``'s fields, each subterm's repr in its slot,
    as a tree for ``_join``."""
    parts = iter(parts)
    if isinstance(t, Rec):
        eqs = [[f"{n!r}: ", next(parts)] for n, _ in t.spec.equations]
        return [f"Rec({t.var!r}, RecSpec({{", _commas(eqs), "}))"]
    fields = (getattr(t, f) for f in t._fields)
    args = [next(parts) if isinstance(v, Term) else _field_repr(v) for v in fields]
    return [f"{type(t).__name__}(", _commas(args), ")"]


def _field_repr(v) -> str:
    """``repr`` of a field that is not a term; a sync set lists its actions
    sorted, so the text does not depend on the hash seed."""
    if isinstance(v, frozenset) and v:
        return f"frozenset({{{', '.join(map(repr, sorted(v)))}}})"
    return repr(v)


def _ignore(head, values) -> None:
    """``leave`` for walks run for what ``enter`` records."""


def _variants(t: Term, values: list[list[Term]]) -> list[Term]:
    """``t`` with one of its subterms replaced, by each of that subterm's
    ``values`` in turn, subterm by subterm."""
    out = []
    for i, replacements in enumerate(values):
        if replacements:
            parts = list(subterms(t))
            for v in replacements:
                parts[i] = v
                out.append(rebuild(t, parts))
    return out


# ---------------------------------------------------------------------------
# binding analysis


def free_vars(t: Term) -> frozenset[str]:
    """The set of variables with a free occurrence in ``t``."""
    return t._facts.free


def unguarded_free_vars(t: Term) -> frozenset[str]:
    """Free variables having at least one unguarded occurrence in ``t``: one
    under no prefix and in no disjunction operand."""
    return t._facts.unguarded


# ``syntactic_flag(t)`` is F(t) as the syntax decides it: for a closed ``t``
# with no binder and no conjunction below it, the fold of ``NEEDS`` over its
# subterms, which equals the least fixpoint of the inconsistency rules; else
# None.  An attrgetter, as the fixpoint reads it off every universe term.
syntactic_flag = attrgetter("_facts.flag")


def _named(t: Term) -> bool:
    """Whether a variable or a binder occurs in ``t``: whether its facts
    are not one of ``_CLOSED``."""
    return not _closed(t._facts)


def all_names(t: Term) -> frozenset[str]:
    """Every variable name occurring in ``t``, free or bound."""
    out: set[str] = set()
    seen: set[Term] = set()

    def enter(t: Term, _):
        if t in seen or not _named(t):
            return None, None, None
        seen.add(t)
        if isinstance(t, Var):
            out.add(t.name)
        elif isinstance(t, Rec):
            out.update(t.spec.names)
        return t, subterms(t), None

    _walk(t, None, enter, _ignore)
    return frozenset(out)


@dataclass(frozen=True)
class _Occurrence:
    strong: bool  # lies under a visible-action prefix
    weak: bool  # lies under an internal prefix or a disjunction operand
    unfolded: bool  # lies outside every recursion scope
    in_conj: bool  # lies under a conjunction operand


def _occurrences(t: Term, x: str) -> list[_Occurrence]:
    out: list[_Occurrence] = []

    def enter(t: Term, ctx: tuple[bool, bool, bool, bool]):
        if x not in free_vars(t):
            return None, None, None  # no occurrence below, or a binder of x
        strong, weak, in_rec, in_conj = ctx
        match t:
            case Var():
                out.append(_Occurrence(strong, weak, not in_rec, in_conj))
            case Prefix():
                vis = is_visible(t.action)
                ctx = (strong or vis, weak or not vis, in_rec, in_conj)
            case Disj():
                ctx = (strong, True, in_rec, in_conj)
            case Conj():
                ctx = (strong, weak, in_rec, True)
            case Rec():
                ctx = (strong, weak, True, in_conj)
        return t, subterms(t), ctx

    _walk(t, (False, False, False, False), enter, _ignore)
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
    """Return (variable, equation) for the first unguarded bound occurrence:
    equations in order, variables sorted, read off the unguarded names each
    body recorded.  A system records it when built, as ``guard_violation``."""
    for eq_name, body in spec.equations:
        unguarded = unguarded_free_vars(body) & spec.names
        if unguarded:
            return (min(unguarded), eq_name)
    return None


# ---------------------------------------------------------------------------
# measures


def _fold_distinct(t: Term, enter, leave, memo: dict):
    """``_walk(t, None, enter, leave)`` for a value that depends on the node
    alone: a node not in ``memo`` is walked once and its value kept there, so
    a hash-consed term costs its distinct nodes, not its tree."""

    def enter_once(u: Term, ctx):
        known = memo.get(u)
        return (known, None, None) if known is not None else enter(u, ctx)

    def leave_once(u: Term, values: list):
        return memo.setdefault(u, leave(u, values))

    return _walk(t, None, enter_once, leave_once)


def _into_operands(t: Term, _):
    return t, operands(t), None


def _size(_, sizes: list[int]) -> int:
    return 1 + sum(sizes)


def _degree(t: Term, memo: dict[Term, int]) -> int:
    """``degree``, with the value of every node met kept in ``memo``."""
    return _fold_distinct(t, _into_operands, _size, memo)


def degree(t: Term) -> int:
    """Structural size where recursions and leaves count 1."""
    return _degree(t, {})


def _plus_rec(t: Term, counts: list[int]) -> int:
    return sum(counts) + (1 if isinstance(t, Rec) else 0)


def _unguarded_operands(t: Term, _):
    if isinstance(t, (Prefix, Disj)):
        return 0, None, None
    if isinstance(t, Rec):
        return t, (t.spec.body(t.var),), None
    return t, operands(t), None


def unguarded_rec_count(t: Term) -> int:
    """Number of recursion operators not protected by a prefix or disjunction,
    counting through each recursion's body: u(<X | E>) = 1 + u(E_X), and a
    variable counts 0.  Bodies are finite and not plugged, so the walk ends."""
    return _fold_distinct(t, _unguarded_operands, _plus_rec, {})


@dataclass(frozen=True, order=True)
class StratRank:
    """Rank of a derivation literal.

    Transition literals rank as the pair (unguarded recursion count, degree)
    of their source term, compared lexicographically; inconsistency literals
    rank above every pair.  This stratifies every rule.  Guardedness puts each
    bound variable under a prefix or a disjunction, so at ``rec-unfold``
    u(unfold_rec(t)) = u(E_X) < u(t); every other rule's premise sources are
    operands, where u is monotone and the degree strictly smaller.  So every
    ``semantics.step`` ends, as it checks each recursion it expands guarded.
    The published count, which stops at a recursion, fails at ``rec-unfold``
    once an equation body holds an unguarded recursion.
    """

    top: bool
    guard_count: int = 0
    size: int = 0


def rank_transition(source: Term) -> StratRank:
    """Rank of any transition literal with the given source term."""
    return StratRank(False, unguarded_rec_count(source), degree(source))


def rank_inconsistent() -> StratRank:
    """Rank of an inconsistency literal: above all transition ranks."""
    return StratRank(True)


def folding_number(t: Term, x: str) -> int:
    """Total nesting depth of recursions around unguarded occurrences of ``x``."""

    def enter(t: Term, _):
        if isinstance(t, (Prefix, Disj)) or (
            isinstance(t, Rec) and x not in unguarded_free_vars(t)
        ):
            return 0, None, None
        return t, subterms(t), None

    return _walk(t, None, enter, _plus_rec)


# ---------------------------------------------------------------------------
# substitution and unfolding


def _fresh_name(base: str, avoid: set[str], first: dict[str, int] | None = None) -> str:
    """The first of ``base1``, ``base2``, ... not in ``avoid``, added to it.
    ``first`` maps a base to the index its search starts from; a caller whose
    ``avoid`` only grows passes one map to every call, so that the names below
    that index, all taken, are not tried again."""
    i = first.get(base, 1) if first else 1
    while f"{base}{i}" in avoid:
        i += 1
    if first is not None:
        first[base] = i + 1
    name = f"{base}{i}"
    avoid.add(name)
    return name


def _rename_binders(t: Rec, renaming: Mapping[str, str]) -> Rec:
    """``t`` with bound variables renamed throughout their own scope."""
    var_subst = {old: Var(new) for old, new in renaming.items()}
    return Rec(
        renaming.get(t.var, t.var),
        {renaming.get(n, n): substitute(body, var_subst) for n, body in t.spec.equations},
    )


def substitute(t: Term, bindings: Mapping[str, Term]) -> Term:
    """Simultaneously replace free occurrences of the bound names.

    Replacement respects recursion scopes: occurrences shadowed by an equal
    binder are left alone, and a binder that would capture a free variable of
    an inserted term is renamed first.
    """

    def enter(t: Term, subst: dict[str, Term]):
        free = free_vars(t)
        if not (free & subst.keys()):
            return t, None, None
        if isinstance(t, Var):
            return subst[t.name], None, None
        if isinstance(t, Rec):
            # free names of a recursion are never its own binders
            subst = {k: v for k, v in subst.items() if k in free}
            inserted = _EMPTY.union(*map(free_vars, subst.values()))
            captured = t.spec.names & inserted
            if captured:
                avoid = set(all_names(t)) | set(inserted) | set(subst)
                renaming = {old: _fresh_name(old, avoid) for old in sorted(captured)}
                t = _rename_binders(t, renaming)
        return t, subterms(t), subst

    return _walk(t, dict(bindings), enter) if bindings else t


@lru_cache(maxsize=1 << 16)
def plug(t: Term, spec: RecSpec) -> Term:
    """Close ``t`` over an equation system: each free occurrence of a bound
    variable becomes the corresponding recursion operator.  Only the names
    free in ``t`` are bound, so an unfolding costs what its body names, not
    the size of the system."""
    return substitute(t, {x: Rec(x, spec) for x in sorted(free_vars(t) & spec.names)})


def unfold_rec(t: Rec) -> Term:
    """One-step expansion of a recursion: its body plugged with itself."""
    return plug(t.spec.body(t.var), t.spec)


def unfold_one(t: Term) -> list[Term]:
    """All terms obtained by expanding exactly one recursion subterm that is
    not inside another recursion scope."""

    def enter(t: Term, _):
        if isinstance(t, Rec):
            return [unfold_rec(t)], None, None
        return t, operands(t), None

    return list(dict.fromkeys(_walk(t, None, enter, _variants)))


def _operator(t: Term) -> tuple:
    """``t``'s constructor with its fields other than operands; a leaf's
    fields are left out, as a leaf relates to itself alone."""
    return type(t), getattr(t, "action", None), getattr(t, "sync", None)


def is_multi_unfolding(t: Term, s: Term) -> bool:
    """Whether a chain of ``unfold_one`` steps leads from ``t`` to ``s``.

    Decided exactly by a co-walk over pairs (t, s), with an explicit stack
    and one memo of the pairs entered.  The pair holds when ``t is s``.  A
    recursion ``t`` has one step, its own expansion, so the pair stands or
    falls with (``unfold_rec(t)``, s).  Any other ``t`` steps inside one
    operand at a time, so ``s`` needs ``t``'s operator and fields, and each
    operand pair must hold.  No case branches, so the first pair that fails
    answers no.

    Operand pairs shrink ``s``, so only a chain of expansions can go on at
    one ``s``.  In a guarded equation system each expansion lowers the
    unguarded recursion count (``StratRank``), so the chain ends.  In any
    other, each term on the chain is a subterm of the input closed over the
    equation systems around it, of which there are finitely many, so a chain
    that does not end comes back to a term already on it, as the hand-built
    ``<X | X = X>``'s does.  Such a chain reaches no other term: no.
    """
    todo, seen = [(t, s)], {(t, s)}
    while todo:
        t, s = todo.pop()
        chain = set()
        while type(t) is Rec and t is not s:
            chain.add(t)
            t = unfold_rec(t)
            if t in chain:
                return False
        if t is s:
            continue
        parts = operands(t)
        if not parts or _operator(t) != _operator(s):
            return False
        for pair in zip(parts, operands(s)):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


# ---------------------------------------------------------------------------
# normalisation


def normalize(t: Term) -> Term:
    """Rename recursion variables so that binders never clash with free names,
    with enclosing binders, or with a differently-defined specification seen
    earlier.  Renaming is deterministic in the structure of the input.

    Those are the only clashes the two passes rename, and an equation system
    never encloses itself, so when no bound name is free and distinct systems
    bind disjoint names, ``t`` is returned as it is."""
    free = free_vars(t)
    bound = [v for spec in {spec for _, spec in rec_specs(t)} for v in spec.names]
    if free.isdisjoint(bound) and len(set(bound)) == len(bound):
        return t
    used: set[str] = set()  # the input's names, read at the first renaming
    first: dict[str, int] = {}  # per base, the index ``fresh`` resumes at
    scope: set[str] = set()  # the binders around the node being entered

    def fresh(v: str) -> str:
        if not used:  # nothing is renamed yet, so ``t`` is still the input
            used.update(all_names(t))
        return _fresh_name(v, used, first)

    # A subterm with no binder below has no binder to rename.
    def rename(t: Term, _):
        if not t._facts.binder:
            return t, None, None
        if isinstance(t, Rec):
            renaming = {v: fresh(v) for v in sorted(t.spec.names) if v in free or v in scope}
            if renaming:
                t = _rename_binders(t, renaming)
            scope.update(t.spec.names)
        return t, subterms(t), None

    def unscope(t: Term, parts: list[Term]) -> Term:
        if isinstance(t, Rec):
            scope.difference_update(t.spec.names)
        return rebuild(t, parts)

    t = _walk(t, None, rename, unscope)

    # Second pass: distinct specifications never share a bound name.
    claims: dict[str, RecSpec] = {}

    def claim(t: Term, _):
        if not t._facts.binder:
            return t, None, None
        if isinstance(t, Rec):
            renaming = {}
            for v in sorted(t.spec.names):
                claimed = claims.get(v)
                if claimed is None:
                    claims[v] = t.spec
                elif claimed != t.spec:
                    renaming[v] = fresh(v)
            if renaming:
                t = _rename_binders(t, renaming)
                for v in renaming.values():
                    claims[v] = t.spec
        return t, subterms(t), None

    return _walk(t, None, claim)


def rec_specs(t: Term) -> list[tuple[Rec, RecSpec]]:
    """All recursion operators in ``t`` (including nested ones), pre-order."""
    out: list[tuple[Rec, RecSpec]] = []

    def enter(t: Term, _):
        if not t._facts.binder:
            return None, None, None  # no binder below
        if isinstance(t, Rec):
            out.append((t, t.spec))
        return t, subterms(t), None

    _walk(t, None, enter, _ignore)
    return out
